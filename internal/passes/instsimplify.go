package passes

import (
	"tameir/internal/ir"
)

// InstSimplify folds instructions to existing values or constants
// without creating new instructions: constant folding plus algebraic
// identities. Every rule is a refinement under both semantics (each
// rule's comment notes the deferred-UB argument where it is subtle).
type InstSimplify struct{}

// Name implements Pass.
func (InstSimplify) Name() string { return "instsimplify" }

// Run implements Pass.
func (InstSimplify) Run(f *ir.Func, cfg *Config, _ *AnalysisManager) bool {
	snap := newSnapshot()
	defer snap.release()
	changed := false
	for {
		localChange := false
		for _, b := range f.Blocks {
			for _, in := range snap.of(b) {
				if in.Parent() == nil {
					continue // erased by an earlier simplification
				}
				if v, ok := simplifyInstr(in, cfg); ok {
					replaceAndErase(in, v)
					localChange = true
				}
			}
		}
		if !localChange {
			break
		}
		changed = true
	}
	return changed
}

// simplifyInstr returns the simpler replacement value, if any.
func simplifyInstr(in *ir.Instr, cfg *Config) (ir.Value, bool) {
	if in.Op.IsTerminator() || in.Op.HasSideEffects() {
		return nil, false
	}
	if v, ok := FoldConstant(in, cfg.Sem.Mode, cfg.FreezeAware); ok {
		// Don't self-replace (freeze(freeze) returns its own operand).
		if v != ir.Value(in) {
			return v, true
		}
	}
	switch {
	case in.Op.IsBinop():
		return simplifyBinop(in)
	case in.Op == ir.OpICmp:
		return simplifyICmp(in)
	case in.Op == ir.OpSelect:
		return simplifySelect(in)
	case in.Op == ir.OpPhi:
		return simplifyPhi(in)
	}
	return nil, false
}

func simplifyBinop(in *ir.Instr) (ir.Value, bool) {
	x, y := in.Arg(0), in.Arg(1)
	// View commutative binops with the constant on the right; the
	// rules below then only need one orientation.
	if in.Op.IsCommutative() && ir.IsConstLeaf(x) && !ir.IsConstLeaf(y) {
		x, y = y, x
	}
	switch in.Op {
	case ir.OpAdd:
		if isZeroConst(y) {
			return x, true // x+0 = x (exact, poison passes through)
		}
		if isZeroConst(x) {
			return y, true
		}
	case ir.OpSub:
		if isZeroConst(y) {
			return x, true
		}
		// x - x = 0: sound even for poison (0 ⊑ poison) and legacy
		// undef (two fresh picks include equal ones, and folding to a
		// member of the result set is a refinement).
		if valueEq(x, y) {
			return ir.ConstInt(in.Ty, 0), true
		}
	case ir.OpMul:
		if isOneConst(y) {
			return x, true
		}
		if isZeroConst(y) {
			// x*0 = 0: if x is poison the source is poison ⊒ 0.
			return ir.ConstInt(in.Ty, 0), true
		}
	case ir.OpAnd:
		if isZeroConst(y) {
			return ir.ConstInt(in.Ty, 0), true
		}
		if isAllOnesConst(y) {
			return x, true
		}
		if valueEq(x, y) {
			return x, true
		}
	case ir.OpOr:
		if isZeroConst(y) {
			return x, true
		}
		if isAllOnesConst(y) {
			return ir.ConstInt(in.Ty, ir.TruncBits(^uint64(0), uint(in.Ty.Bits))), true
		}
		if valueEq(x, y) {
			return x, true
		}
	case ir.OpXor:
		if isZeroConst(y) {
			return x, true
		}
		if valueEq(x, y) {
			return ir.ConstInt(in.Ty, 0), true
		}
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		if isZeroConst(y) {
			return x, true
		}
		if isZeroConst(x) {
			// 0 shifted is 0 unless the amount over-shifts (deferred
			// UB ⊒ 0, still sound). The poison-generating flags are all
			// vacuous on a zero LHS — 0 << k never overflows (nsw/nuw)
			// and never discards set bits (exact) — so, unlike the
			// general flagged-shift case, no may-be-poison bail is
			// needed here.
			return ir.ConstInt(in.Ty, 0), true
		}
	case ir.OpUDiv, ir.OpSDiv:
		if isOneConst(y) {
			return x, true
		}
	case ir.OpURem:
		if isOneConst(y) {
			return ir.ConstInt(in.Ty, 0), true
		}
	}
	return nil, false
}

func simplifyICmp(in *ir.Instr) (ir.Value, bool) {
	x, y := in.Arg(0), in.Arg(1)
	if valueEq(x, y) {
		// icmp p x, x folds by reflexivity. Poison operand: source
		// poison ⊒ any constant.
		switch in.Pred {
		case ir.PredEQ, ir.PredUGE, ir.PredULE, ir.PredSGE, ir.PredSLE:
			return ir.ConstBool(true), true
		default:
			return ir.ConstBool(false), true
		}
	}
	if !x.Type().IsInt() {
		return nil, false
	}
	w := uint(x.Type().Bits)
	if c, ok := constOperand(y); ok {
		// Unsatisfiable / tautological range comparisons.
		maxU := ir.TruncBits(^uint64(0), w)
		switch {
		case in.Pred == ir.PredULT && c.IsZero():
			return ir.ConstBool(false), true
		case in.Pred == ir.PredUGE && c.IsZero():
			return ir.ConstBool(true), true
		case in.Pred == ir.PredUGT && c.Bits == maxU:
			return ir.ConstBool(false), true
		case in.Pred == ir.PredULE && c.Bits == maxU:
			return ir.ConstBool(true), true
		}
	}
	return nil, false
}

func simplifySelect(in *ir.Instr) (ir.Value, bool) {
	// select c, x, x = x: if c is poison the source is poison (Figure
	// 5) or poison/UB (legacy readings); x ⊑ all of them.
	if valueEq(in.Arg(1), in.Arg(2)) {
		return in.Arg(1), true
	}
	// select c, x, poison = x (and symmetrically): when the poison arm
	// would be picked the source is poison — or already poison/UB via
	// the either-arm and cond-poison knobs — and anything refines
	// poison, so the other arm always does. Unlike the historical
	// select-undef fold (§3.4, which this rule deliberately does not
	// subsume), poison is the top of the refinement order, so no
	// may-be-poison bail is needed on any knob.
	if _, isP := in.Arg(2).(*ir.Poison); isP {
		return in.Arg(1), true
	}
	if _, isP := in.Arg(1).(*ir.Poison); isP {
		return in.Arg(2), true
	}
	return nil, false
}

func simplifyPhi(in *ir.Instr) (ir.Value, bool) {
	// A phi whose incomings are all the same value (ignoring
	// self-references) is that value.
	var v ir.Value
	for i := 0; i < in.NumArgs(); i++ {
		a := in.Arg(i)
		if a == ir.Value(in) {
			continue
		}
		if v == nil {
			v = a
		} else if !valueEq(v, a) {
			return nil, false
		}
	}
	if v == nil {
		return nil, false
	}
	return v, true
}
