package ir

import "fmt"

// VerifyMode selects which deferred-UB constants the verifier admits.
type VerifyMode uint8

const (
	// VerifyLegacy admits both undef and poison (pre-paper LLVM).
	VerifyLegacy VerifyMode = iota
	// VerifyFreeze rejects undef: under the paper's proposed semantics
	// the only deferred-UB constant is poison, recovered to a stable
	// value with freeze.
	VerifyFreeze
)

// Verify checks structural well-formedness of the function: SSA
// dominance, block/terminator discipline, operand typing, and (for
// VerifyFreeze) absence of undef.
func Verify(f *Func, mode VerifyMode) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("@%s: function has no blocks", f.Nam)
	}
	// Every parameter and instruction may enter both maps: size them
	// once rather than growing them one instruction at a time.
	n := len(f.Params) + f.NumInstrs()
	names := make(map[string]bool, n)
	for _, p := range f.Params {
		if names[p.Nam] {
			return fmt.Errorf("@%s: duplicate name %%%s", f.Nam, p.Nam)
		}
		names[p.Nam] = true
	}
	defined := make(map[Value]bool, n)
	for _, p := range f.Params {
		defined[p] = true
	}
	blockSeen := map[string]bool{}
	for _, b := range f.Blocks {
		if blockSeen[b.Nam] {
			return fmt.Errorf("@%s: duplicate block label %q", f.Nam, b.Nam)
		}
		blockSeen[b.Nam] = true
		if b.parent != f {
			return fmt.Errorf("@%s: block %s has wrong parent", f.Nam, b.Nam)
		}
		if len(b.instrs) == 0 {
			return fmt.Errorf("@%s: block %s is empty", f.Nam, b.Nam)
		}
		if b.Terminator() == nil {
			return fmt.Errorf("@%s: block %s does not end in a terminator", f.Nam, b.Nam)
		}
		seenNonPhi := false
		for i, in := range b.instrs {
			if in.parent != b {
				return fmt.Errorf("@%s: instruction %s has wrong parent", f.Nam, in)
			}
			if in.Op.IsTerminator() && i != len(b.instrs)-1 {
				return fmt.Errorf("@%s: terminator %s is not last in block %s", f.Nam, in, b.Nam)
			}
			if in.Op == OpPhi {
				if seenNonPhi {
					return fmt.Errorf("@%s: phi %%%s after non-phi in block %s", f.Nam, in.Nam, b.Nam)
				}
			} else {
				seenNonPhi = true
			}
			if !in.Ty.IsVoid() {
				if in.Nam == "" {
					return fmt.Errorf("@%s: unnamed value-producing instruction %s", f.Nam, in)
				}
				if names[in.Nam] {
					return fmt.Errorf("@%s: duplicate name %%%s", f.Nam, in.Nam)
				}
				names[in.Nam] = true
			}
			if err := verifyInstr(f, in, mode); err != nil {
				return err
			}
			defined[in] = true
		}
	}
	// All operands must be defined somewhere in the function (full
	// dominance checking lives in analysis; here we catch dangling
	// references and cross-function leaks).
	for _, b := range f.Blocks {
		for _, in := range b.instrs {
			for _, a := range in.Args() {
				if IsConstLeaf(a) {
					continue
				}
				if !defined[a] {
					return fmt.Errorf("@%s: %s uses value %s not defined in this function", f.Nam, in, a.Ident())
				}
			}
			for i := 0; i < in.NumBlocks(); i++ {
				tb := in.BlockArg(i)
				if tb.parent != f {
					return fmt.Errorf("@%s: %s references block from another function", f.Nam, in)
				}
				if f.BlockByName(tb.Nam) != tb {
					return fmt.Errorf("@%s: %s references detached block %%%s", f.Nam, in, tb.Nam)
				}
			}
		}
	}
	// Phi nodes must have exactly one incoming per predecessor.
	for _, b := range f.Blocks {
		preds := f.Preds(b)
		for _, ph := range b.Phis() {
			if ph.NumArgs() != len(preds) {
				return fmt.Errorf("@%s: phi %%%s in %s has %d incomings, block has %d predecessors",
					f.Nam, ph.Nam, b.Nam, ph.NumArgs(), len(preds))
			}
			for _, p := range preds {
				if _, ok := ph.PhiIncoming(p); !ok {
					return fmt.Errorf("@%s: phi %%%s missing incoming for predecessor %s", f.Nam, ph.Nam, p.Nam)
				}
			}
		}
	}
	return nil
}

func verifyInstr(f *Func, in *Instr, mode VerifyMode) error {
	if mode == VerifyFreeze {
		for _, a := range in.Args() {
			if _, isUndef := a.(*Undef); isUndef {
				return fmt.Errorf("@%s: %s uses undef, which does not exist under the freeze semantics", f.Nam, in)
			}
			if vc, ok := a.(*VecConst); ok {
				for _, e := range vc.Elems {
					if _, isUndef := e.(*Undef); isUndef {
						return fmt.Errorf("@%s: %s uses a vector constant with an undef lane", f.Nam, in)
					}
				}
			}
		}
	}
	errf := func(format string, args ...any) error {
		return fmt.Errorf("@%s: %s: %s", f.Nam, in, fmt.Sprintf(format, args...))
	}
	switch {
	case in.Op.IsBinop():
		if in.NumArgs() != 2 {
			return errf("binop needs 2 operands")
		}
		if !in.Arg(0).Type().Equal(in.Arg(1).Type()) || !in.Arg(0).Type().Equal(in.Ty) {
			return errf("binop type mismatch")
		}
		if et := in.Ty.ElemType(); !et.IsInt() {
			return errf("binop on non-integer type %s", in.Ty)
		}
	case in.Op == OpICmp:
		if in.NumArgs() != 2 || !in.Arg(0).Type().Equal(in.Arg(1).Type()) {
			return errf("icmp operand mismatch")
		}
		want := I1
		if in.Arg(0).Type().IsVec() {
			want = Vec(in.Arg(0).Type().NumElems(), I1)
		}
		if !in.Ty.Equal(want) {
			return errf("icmp result must be %s", want)
		}
		if in.Pred >= predMax {
			return errf("bad predicate")
		}
	case in.Op == OpSelect:
		if in.NumArgs() != 3 {
			return errf("select needs 3 operands")
		}
		ct := in.Arg(0).Type()
		if !ct.Equal(I1) && !(ct.IsVec() && ct.ElemType().Equal(I1)) {
			return errf("select condition must be i1 or vector of i1")
		}
		if !in.Arg(1).Type().Equal(in.Arg(2).Type()) || !in.Arg(1).Type().Equal(in.Ty) {
			return errf("select arm type mismatch")
		}
		if ct.IsVec() && (!in.Ty.IsVec() || in.Ty.Len != ct.Len) {
			return errf("vector select lane mismatch")
		}
	case in.Op == OpPhi:
		if in.NumArgs() != in.NumBlocks() || in.NumArgs() == 0 {
			return errf("phi incoming arity mismatch")
		}
		for _, a := range in.Args() {
			if !a.Type().Equal(in.Ty) {
				return errf("phi incoming type mismatch")
			}
		}
	case in.Op == OpFreeze:
		if in.NumArgs() != 1 || !in.Arg(0).Type().Equal(in.Ty) {
			return errf("freeze type mismatch")
		}
	case in.Op == OpAlloca:
		if in.NumArgs() != 1 {
			return errf("alloca needs a count")
		}
		if _, ok := in.Arg(0).(*Const); !ok {
			return errf("alloca count must be constant")
		}
		if in.AllocTy.IsVoid() {
			return errf("alloca of void")
		}
	case in.Op == OpLoad:
		if in.NumArgs() != 1 || !in.Arg(0).Type().IsPtr() {
			return errf("load needs a pointer")
		}
		if in.Ty.IsVoid() {
			return errf("load of void")
		}
	case in.Op == OpStore:
		if in.NumArgs() != 2 || !in.Arg(1).Type().IsPtr() {
			return errf("store needs value, pointer")
		}
	case in.Op == OpGEP:
		if in.NumArgs() != 2 || !in.Arg(0).Type().IsPtr() {
			return errf("gep needs pointer, index")
		}
		if !in.Arg(1).Type().IsInt() {
			return errf("gep index must be integer")
		}
	case in.Op == OpZExt, in.Op == OpSExt:
		if in.NumArgs() != 1 {
			return errf("cast needs 1 operand")
		}
		from, to := in.Arg(0).Type(), in.Ty
		if from.NumElems() != to.NumElems() || !from.ElemType().IsInt() || !to.ElemType().IsInt() {
			return errf("ext between incompatible types")
		}
		if from.ElemType().Bits >= to.ElemType().Bits {
			return errf("ext must widen")
		}
	case in.Op == OpTrunc:
		if in.NumArgs() != 1 {
			return errf("cast needs 1 operand")
		}
		from, to := in.Arg(0).Type(), in.Ty
		if from.NumElems() != to.NumElems() || !from.ElemType().IsInt() || !to.ElemType().IsInt() {
			return errf("trunc between incompatible types")
		}
		if from.ElemType().Bits <= to.ElemType().Bits {
			return errf("trunc must narrow")
		}
	case in.Op == OpBitcast:
		if in.NumArgs() != 1 {
			return errf("cast needs 1 operand")
		}
		if in.Arg(0).Type().Bitwidth() != in.Ty.Bitwidth() {
			return errf("bitcast bitwidth mismatch")
		}
	case in.Op == OpExtractElement:
		if in.NumArgs() != 2 || !in.Arg(0).Type().IsVec() {
			return errf("extractelement needs vector, index")
		}
		if !in.Ty.Equal(in.Arg(0).Type().ElemType()) {
			return errf("extractelement result type mismatch")
		}
	case in.Op == OpInsertElement:
		if in.NumArgs() != 3 || !in.Arg(0).Type().IsVec() {
			return errf("insertelement needs vector, scalar, index")
		}
		if !in.Ty.Equal(in.Arg(0).Type()) || !in.Arg(1).Type().Equal(in.Ty.ElemType()) {
			return errf("insertelement type mismatch")
		}
	case in.Op == OpBr:
		switch in.NumArgs() {
		case 0:
			if in.NumBlocks() != 1 {
				return errf("unconditional br needs 1 target")
			}
		case 1:
			if in.NumBlocks() != 2 {
				return errf("conditional br needs 2 targets")
			}
			if !in.Arg(0).Type().Equal(I1) {
				return errf("br condition must be i1")
			}
		default:
			return errf("br has too many operands")
		}
	case in.Op == OpRet:
		switch in.NumArgs() {
		case 0:
			if !f.RetTy.IsVoid() {
				return errf("ret void in non-void function")
			}
		case 1:
			if !in.Arg(0).Type().Equal(f.RetTy) {
				return errf("ret type %s does not match function return %s", in.Arg(0).Type(), f.RetTy)
			}
		default:
			return errf("ret has too many operands")
		}
	case in.Op == OpUnreachable:
		if in.NumArgs() != 0 {
			return errf("unreachable takes no operands")
		}
	case in.Op == OpCall:
		if in.Callee == nil {
			return errf("call with no callee")
		}
		if len(in.Callee.Params) != in.NumArgs() {
			return errf("call arity mismatch")
		}
		for i, p := range in.Callee.Params {
			if !p.Ty.Equal(in.Arg(i).Type()) {
				return errf("call argument %d type mismatch", i)
			}
		}
		if !in.Ty.Equal(in.Callee.RetTy) {
			return errf("call result type mismatch")
		}
	default:
		return errf("unknown opcode")
	}
	return nil
}

// VerifyModule verifies every function in the module.
func VerifyModule(m *Module, mode VerifyMode) error {
	for _, f := range m.Funcs {
		if err := Verify(f, mode); err != nil {
			return err
		}
	}
	return nil
}
