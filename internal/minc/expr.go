package minc

import (
	"fmt"

	"tameir/internal/ir"
)

// convert coerces a value to type to, following C's value-preserving
// conversion rules: extension uses the *source* signedness.
func (g *irgen) convert(v cval, to *CType, line int) (cval, error) {
	if v.ty.Equal(to) {
		return cval{v.v, to}, nil
	}
	// Array-to-pointer decay happens in genExpr; here both must be
	// scalar.
	if v.ty.Kind == CPtr && to.Kind == CPtr {
		return cval{v.v, to}, nil // all pointers are one IR type
	}
	if v.ty.Kind != CInt || to.Kind != CInt {
		return cval{}, fmt.Errorf("minc: line %d: cannot convert %s to %s", line, v.ty, to)
	}
	from := v.ty
	switch {
	case from.Bits == to.Bits:
		return cval{v.v, to}, nil // signedness-only change is a no-op on bits
	case from.Bits > to.Bits:
		return cval{g.bd.Trunc(v.v, ir.Int(to.Bits)), to}, nil
	case from.Unsigned:
		return cval{g.bd.ZExt(v.v, ir.Int(to.Bits)), to}, nil
	default:
		return cval{g.bd.SExt(v.v, ir.Int(to.Bits)), to}, nil
	}
}

// usualConv applies the usual arithmetic conversions to a pair.
func (g *irgen) usualConv(a, b cval, line int) (cval, cval, *CType, error) {
	if a.ty.Kind != CInt || b.ty.Kind != CInt {
		return cval{}, cval{}, nil, fmt.Errorf("minc: line %d: arithmetic on non-integers (%s, %s)", line, a.ty, b.ty)
	}
	bits := a.ty.Bits
	if b.ty.Bits > bits {
		bits = b.ty.Bits
	}
	if bits < 32 {
		bits = 32 // integer promotion
	}
	unsigned := (a.ty.Bits == bits && a.ty.Unsigned) || (b.ty.Bits == bits && b.ty.Unsigned)
	common := &CType{Kind: CInt, Bits: bits, Unsigned: unsigned}
	ca, err := g.convert(a, common, line)
	if err != nil {
		return cval{}, cval{}, nil, err
	}
	cb, err := g.convert(b, common, line)
	if err != nil {
		return cval{}, cval{}, nil, err
	}
	return ca, cb, common, nil
}

// genExpr evaluates an expression as an rvalue. Arrays decay to
// pointers; struct rvalues are not supported (use pointers).
func (g *irgen) genExpr(e Expr) (cval, error) {
	switch x := e.(type) {
	case *NumLit:
		ty := TyInt
		if x.Val > 0x7fffffff {
			ty = TyLong
		}
		return cval{ir.ConstInt(ir.Int(ty.Bits), x.Val), ty}, nil
	case *SizeofT:
		return cval{ir.ConstInt(ir.I32, uint64(x.Ty.Size())), TyUInt}, nil
	case *Binary:
		return g.genBinary(x)
	case *Unary:
		return g.genUnary(x)
	case *Assign:
		return g.genAssign(x)
	case *Cast:
		v, err := g.genExpr(x.E)
		if err != nil {
			return cval{}, err
		}
		return g.convert(v, x.To, x.Line)
	case *Call:
		fn, ok := g.funcs[x.Name]
		if !ok {
			return cval{}, fmt.Errorf("minc: line %d: unknown function %s", x.Line, x.Name)
		}
		if len(x.Args) != len(fn.Params) {
			return cval{}, fmt.Errorf("minc: line %d: %s expects %d args", x.Line, x.Name, len(fn.Params))
		}
		var args []ir.Value
		for i, a := range x.Args {
			av, err := g.genExpr(a)
			if err != nil {
				return cval{}, err
			}
			want := fn.Params[i].Ty
			cv, err := g.convertToIRType(av, want, x.Line)
			if err != nil {
				return cval{}, err
			}
			args = append(args, cv)
		}
		res := g.bd.Call(fn, args...)
		rty := TyInt
		switch {
		case fn.RetTy.IsVoid():
			rty = TyVoid
		case fn.RetTy.IsPtr():
			rty = Ptr(TyChar)
		default:
			rty = &CType{Kind: CInt, Bits: uint(fn.RetTy.Bits)}
		}
		return cval{res, rty}, nil
	default:
		lv, err := g.genLValue(e)
		if err != nil {
			return cval{}, err
		}
		return g.loadLValue(lv)
	}
}

// convertToIRType coerces through the C conversion to the exact IR
// parameter type.
func (g *irgen) convertToIRType(v cval, want ir.Type, line int) (ir.Value, error) {
	if want.IsPtr() {
		if v.ty.Kind != CPtr {
			return nil, fmt.Errorf("minc: line %d: expected pointer argument", line)
		}
		return v.v, nil
	}
	cv, err := g.convert(v, &CType{Kind: CInt, Bits: uint(want.Bits)}, line)
	if err != nil {
		return nil, err
	}
	return cv.v, nil
}

func (g *irgen) genBinary(x *Binary) (cval, error) {
	if x.Op == "&&" || x.Op == "||" {
		return g.genShortCircuit(x)
	}
	a, err := g.genExpr(x.L)
	if err != nil {
		return cval{}, err
	}
	b, err := g.genExpr(x.R)
	if err != nil {
		return cval{}, err
	}
	return g.genBinOpVals(x.Op, a, b, x.Line)
}

func (g *irgen) genBinOpVals(op string, a, b cval, line int) (cval, error) {
	// Pointer arithmetic: p ± i and p - p.
	if a.ty.Kind == CPtr && (op == "+" || op == "-") && b.ty.Kind == CInt {
		idx, err := g.convert(b, TyInt, line)
		if err != nil {
			return cval{}, err
		}
		iv := idx.v
		if op == "-" {
			neg := g.bd.Sub(ir.ConstInt(ir.I32, 0), iv)
			iv = neg
		}
		// §2.4: pointer arithmetic overflow is deferred UB (inbounds).
		gep := g.gepScaled(a.v, iv, a.ty.Elem.Size())
		return cval{gep, a.ty}, nil
	}
	if a.ty.Kind == CPtr && b.ty.Kind == CPtr {
		switch op {
		case "==", "!=", "<", ">", "<=", ">=":
			pred := map[string]ir.Pred{"==": ir.PredEQ, "!=": ir.PredNE, "<": ir.PredULT, ">": ir.PredUGT, "<=": ir.PredULE, ">=": ir.PredUGE}[op]
			c := g.bd.ICmp(pred, a.v, b.v)
			return cval{g.bd.ZExt(c, ir.I32), TyInt}, nil
		}
		return cval{}, fmt.Errorf("minc: line %d: unsupported pointer op %q", line, op)
	}

	ca, cb, common, err := g.usualConv(a, b, line)
	if err != nil {
		return cval{}, err
	}
	switch op {
	case "+", "-", "*":
		irop := map[string]ir.Op{"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul}[op]
		attrs := ir.Attrs(0)
		if !common.Unsigned {
			// C's signed-overflow UB lowers to deferred UB — the
			// paper's §2 motivation.
			attrs = ir.NSW
		}
		return cval{g.bd.Binop(irop, attrs, ca.v, cb.v), common}, nil
	case "/":
		if common.Unsigned {
			return cval{g.bd.UDiv(ca.v, cb.v), common}, nil
		}
		return cval{g.bd.SDiv(ca.v, cb.v), common}, nil
	case "%":
		if common.Unsigned {
			return cval{g.bd.Binop(ir.OpURem, 0, ca.v, cb.v), common}, nil
		}
		return cval{g.bd.Binop(ir.OpSRem, 0, ca.v, cb.v), common}, nil
	case "&", "|", "^":
		irop := map[string]ir.Op{"&": ir.OpAnd, "|": ir.OpOr, "^": ir.OpXor}[op]
		return cval{g.bd.Binop(irop, 0, ca.v, cb.v), common}, nil
	case "<<":
		return cval{g.bd.Shl(ca.v, cb.v), common}, nil
	case ">>":
		if common.Unsigned {
			return cval{g.bd.Binop(ir.OpLShr, 0, ca.v, cb.v), common}, nil
		}
		return cval{g.bd.Binop(ir.OpAShr, 0, ca.v, cb.v), common}, nil
	case "==", "!=", "<", ">", "<=", ">=":
		var pred ir.Pred
		if common.Unsigned {
			pred = map[string]ir.Pred{"==": ir.PredEQ, "!=": ir.PredNE, "<": ir.PredULT, ">": ir.PredUGT, "<=": ir.PredULE, ">=": ir.PredUGE}[op]
		} else {
			pred = map[string]ir.Pred{"==": ir.PredEQ, "!=": ir.PredNE, "<": ir.PredSLT, ">": ir.PredSGT, "<=": ir.PredSLE, ">=": ir.PredSGE}[op]
		}
		c := g.bd.ICmp(pred, ca.v, cb.v)
		return cval{g.bd.ZExt(c, ir.I32), TyInt}, nil
	}
	return cval{}, fmt.Errorf("minc: line %d: unsupported operator %q", line, op)
}

// gepScaled computes base + idx*elemSize with the inbounds (deferred
// UB on overflow) attribute, scaling by hand for element sizes the GEP
// instruction cannot express directly.
func (g *irgen) gepScaled(base, idx ir.Value, elemSize uint32) ir.Value {
	switch elemSize {
	case 1, 2, 4, 8:
		return g.bd.GEPInbounds(ir.Int(uint(elemSize)*8), base, idx)
	}
	scaled := g.bd.Binop(ir.OpMul, ir.NSW, idx, ir.ConstInt(idx.Type(), uint64(elemSize)))
	return g.bd.GEPInbounds(ir.I8, base, scaled)
}

// genShortCircuit lowers && and || with real control flow (Figure 2's
// "cond2 implies cond" pattern relies on it).
func (g *irgen) genShortCircuit(x *Binary) (cval, error) {
	lv, err := g.genCond(x.L)
	if err != nil {
		return cval{}, err
	}
	rhsB := g.fn.NewBlock("sc.rhs")
	endB := g.fn.NewBlock("sc.end")
	lhsB := g.bd.Block()
	if x.Op == "&&" {
		g.bd.CondBr(lv, rhsB, endB)
	} else {
		g.bd.CondBr(lv, endB, rhsB)
	}
	g.bd.SetBlock(rhsB)
	rv, err := g.genCond(x.R)
	if err != nil {
		return cval{}, err
	}
	rhsOut := g.bd.Block() // genCond may have created blocks
	g.bd.Br(endB)
	g.bd.SetBlock(endB)
	phi := g.bd.Phi(ir.I1)
	shortVal := ir.ConstBool(x.Op == "||")
	phi.AddPhiIncoming(shortVal, lhsB)
	phi.AddPhiIncoming(rv, rhsOut)
	return cval{g.bd.ZExt(phi, ir.I32), TyInt}, nil
}

func (g *irgen) genUnary(x *Unary) (cval, error) {
	switch x.Op {
	case "-":
		v, err := g.genExpr(x.E)
		if err != nil {
			return cval{}, err
		}
		return g.genBinOpVals("-", cval{ir.ConstInt(v.v.Type(), 0), v.ty}, v, x.Line)
	case "~":
		v, err := g.genExpr(x.E)
		if err != nil {
			return cval{}, err
		}
		if v.ty.Kind != CInt {
			return cval{}, fmt.Errorf("minc: line %d: ~ on non-integer", x.Line)
		}
		all := ir.ConstInt(v.v.Type(), ^uint64(0))
		return cval{g.bd.Xor(v.v, all), v.ty}, nil
	case "!":
		v, err := g.genExpr(x.E)
		if err != nil {
			return cval{}, err
		}
		z := g.bd.ICmp(ir.PredEQ, v.v, ir.ConstInt(v.v.Type(), 0))
		return cval{g.bd.ZExt(z, ir.I32), TyInt}, nil
	case "*":
		v, err := g.genExpr(x.E)
		if err != nil {
			return cval{}, err
		}
		if v.ty.Kind != CPtr {
			return cval{}, fmt.Errorf("minc: line %d: dereference of non-pointer %s", x.Line, v.ty)
		}
		return g.loadLValue(clval{addr: v.v, ty: v.ty.Elem})
	case "&":
		lv, err := g.genLValue(x.E)
		if err != nil {
			return cval{}, err
		}
		if lv.bf != nil {
			return cval{}, fmt.Errorf("minc: line %d: cannot take the address of a bit field", x.Line)
		}
		return cval{lv.addr, Ptr(lv.ty)}, nil
	}
	return cval{}, fmt.Errorf("minc: line %d: unsupported unary %q", x.Line, x.Op)
}

// genLValue computes the address (and bit-field window) of an
// assignable expression.
func (g *irgen) genLValue(e Expr) (clval, error) {
	switch x := e.(type) {
	case *VarRef:
		if l, ok := g.lookup(x.Name); ok {
			return clval{addr: l.addr, ty: l.ty}, nil
		}
		if gi, ok := g.globals[x.Name]; ok {
			return clval{addr: gi.g, ty: gi.ty}, nil
		}
		return clval{}, fmt.Errorf("minc: line %d: undefined variable %s", x.Line, x.Name)
	case *Index:
		base, err := g.genExpr(x.Base) // decays arrays
		if err != nil {
			return clval{}, err
		}
		if base.ty.Kind != CPtr {
			return clval{}, fmt.Errorf("minc: line %d: indexing non-pointer %s", x.Line, base.ty)
		}
		idx, err := g.genExpr(x.Idx)
		if err != nil {
			return clval{}, err
		}
		ci, err := g.convert(idx, TyInt, x.Line)
		if err != nil {
			return clval{}, err
		}
		elem := base.ty.Elem
		gep := g.gepScaled(base.v, ci.v, elem.Size())
		return clval{addr: gep, ty: elem}, nil
	case *Member:
		var baseAddr ir.Value
		var st *StructType
		if x.Arrow {
			bv, err := g.genExpr(x.Base)
			if err != nil {
				return clval{}, err
			}
			if bv.ty.Kind != CPtr || bv.ty.Elem.Kind != CStruct {
				return clval{}, fmt.Errorf("minc: line %d: -> on %s", x.Line, bv.ty)
			}
			baseAddr = bv.v
			st = bv.ty.Elem.Struct
		} else {
			blv, err := g.genLValue(x.Base)
			if err != nil {
				return clval{}, err
			}
			if blv.ty.Kind != CStruct {
				return clval{}, fmt.Errorf("minc: line %d: . on %s", x.Line, blv.ty)
			}
			baseAddr = blv.addr
			st = blv.ty.Struct
		}
		f, ok := st.FieldByName(x.Name)
		if !ok {
			return clval{}, fmt.Errorf("minc: line %d: struct %s has no field %s", x.Line, st.Name, x.Name)
		}
		addr := baseAddr
		if f.Offset != 0 {
			addr = g.bd.GEPInbounds(ir.I8, baseAddr, ir.ConstInt(ir.I32, uint64(f.Offset)))
		}
		if f.IsBitfield {
			bf := f
			return clval{addr: addr, ty: f.Ty, bf: &bf}, nil
		}
		return clval{addr: addr, ty: f.Ty}, nil
	case *Unary:
		if x.Op == "*" {
			v, err := g.genExpr(x.E)
			if err != nil {
				return clval{}, err
			}
			if v.ty.Kind != CPtr {
				return clval{}, fmt.Errorf("minc: line %d: dereference of non-pointer", x.Line)
			}
			return clval{addr: v.v, ty: v.ty.Elem}, nil
		}
	}
	return clval{}, fmt.Errorf("minc: %T is not an lvalue", e)
}

// loadLValue reads an lvalue as an rvalue, decaying arrays and
// extracting bit fields.
func (g *irgen) loadLValue(lv clval) (cval, error) {
	switch lv.ty.Kind {
	case CArray:
		return cval{lv.addr, Ptr(lv.ty.Elem)}, nil
	case CStruct:
		return cval{}, fmt.Errorf("minc: struct rvalues are unsupported; take a pointer")
	}
	if lv.bf != nil {
		return g.loadBitfield(lv)
	}
	t, err := irType(lv.ty)
	if err != nil {
		return cval{}, err
	}
	return cval{g.bd.Load(t, lv.addr), lv.ty}, nil
}

func (g *irgen) loadBitfield(lv clval) (cval, error) {
	if g.cfg.Bitfields == BitfieldVector {
		return g.loadBitfieldVector(lv)
	}
	f := lv.bf
	unit := ir.Int(f.Ty.Bits)
	w := g.bd.Load(unit, lv.addr)
	var v ir.Value = w
	if f.BitOff > 0 {
		v = g.bd.Binop(ir.OpLShr, 0, v, ir.ConstInt(unit, uint64(f.BitOff)))
	}
	if f.BitWidth < f.Ty.Bits {
		nv := g.bd.Trunc(v, ir.Int(f.BitWidth))
		if f.Ty.Unsigned {
			v = g.bd.ZExt(nv, unit)
		} else {
			v = g.bd.SExt(nv, unit)
		}
	}
	return cval{v, f.Ty}, nil
}

func (g *irgen) genAssign(x *Assign) (cval, error) {
	lv, err := g.genLValue(x.L)
	if err != nil {
		return cval{}, err
	}
	rv, err := g.genExpr(x.R)
	if err != nil {
		return cval{}, err
	}
	if x.Op != "" {
		cur, err := g.loadLValue(lv)
		if err != nil {
			return cval{}, err
		}
		rv, err = g.genBinOpVals(x.Op, cur, rv, x.Line)
		if err != nil {
			return cval{}, err
		}
	}
	cv, err := g.convert(rv, assignedType(lv), x.Line)
	if err != nil {
		return cval{}, err
	}
	if lv.bf != nil {
		if err := g.storeBitfield(lv, cv.v); err != nil {
			return cval{}, err
		}
		return cv, nil
	}
	if lv.ty.Kind == CArray || lv.ty.Kind == CStruct {
		return cval{}, fmt.Errorf("minc: line %d: cannot assign aggregate", x.Line)
	}
	g.bd.Store(cv.v, lv.addr)
	return cv, nil
}

func assignedType(lv clval) *CType { return lv.ty }

// storeBitfield emits the §5.3 sequence: load the unit, freeze it
// (Freeze semantics only), clear the field's bits, merge the new
// value, store back — or, in BitfieldVector mode, the vector-based
// alternative that needs no freeze.
func (g *irgen) storeBitfield(lv clval, v ir.Value) error {
	if g.cfg.Bitfields == BitfieldVector {
		return g.storeBitfieldVector(lv, v)
	}
	f := lv.bf
	unit := ir.Int(f.Ty.Bits)
	loaded := g.bd.Load(unit, lv.addr)
	var word ir.Value = loaded
	if g.cfg.FreezeBitfieldLoads {
		// The paper's one-line Clang change: without this freeze, the
		// very first bit-field store to a fresh struct reads poison
		// and the or-combine poisons every sibling field.
		word = g.bd.Freeze(loaded)
	}
	fieldMask := ir.TruncBits(^uint64(0), f.BitWidth)
	clearMask := ir.ConstInt(unit, ^(fieldMask << f.BitOff))
	cleared := g.bd.And(word, clearMask)
	val := g.bd.And(v, ir.ConstInt(unit, fieldMask))
	if f.BitOff > 0 {
		val = g.bd.Shl(val, ir.ConstInt(unit, uint64(f.BitOff)))
	}
	merged := g.bd.Or(cleared, val)
	g.bd.Store(merged, lv.addr)
	return nil
}

// loadBitfieldVector reads a bit field lane-by-lane from the unit's
// <W x i1> view, so poison in sibling fields never touches this one.
func (g *irgen) loadBitfieldVector(lv clval) (cval, error) {
	f := lv.bf
	unit := ir.Int(f.Ty.Bits)
	vecTy := ir.Vec(f.Ty.Bits, ir.I1)
	word := g.bd.Load(vecTy, lv.addr)
	var acc ir.Value
	for i := uint(0); i < f.BitWidth; i++ {
		lane := g.bd.ExtractElement(word, ir.ConstInt(ir.I32, uint64(f.BitOff+i)))
		wide := g.bd.ZExt(lane, unit)
		if i > 0 {
			wide = g.bd.Shl(wide, ir.ConstInt(unit, uint64(i)))
		}
		if acc == nil {
			acc = wide
		} else {
			acc = g.bd.Or(acc, wide)
		}
	}
	// Extend from the field width with the field's signedness.
	var v ir.Value = acc
	if f.BitWidth < f.Ty.Bits {
		nv := g.bd.Trunc(v, ir.Int(f.BitWidth))
		if f.Ty.Unsigned {
			v = g.bd.ZExt(nv, unit)
		} else {
			v = g.bd.SExt(nv, unit)
		}
	}
	return cval{v, f.Ty}, nil
}

// storeBitfieldVector lowers a bit-field store through a <W x i1>
// vector: load the unit as per-bit lanes, insertelement the field's
// bits, store back. Poison in untouched lanes stays in those lanes —
// no freeze required (§5.3's superior alternative).
func (g *irgen) storeBitfieldVector(lv clval, v ir.Value) error {
	f := lv.bf
	vecTy := ir.Vec(f.Ty.Bits, ir.I1)
	word := g.bd.Load(vecTy, lv.addr)
	var cur ir.Value = word
	for i := uint(0); i < f.BitWidth; i++ {
		// Extract bit i of the stored value as an i1.
		var bit ir.Value = v
		if i > 0 {
			bit = g.bd.Binop(ir.OpLShr, 0, v, ir.ConstInt(v.Type(), uint64(i)))
		}
		b1 := g.bd.Trunc(bit, ir.I1)
		cur = g.bd.InsertElement(cur, b1, ir.ConstInt(ir.I32, uint64(f.BitOff+i)))
	}
	g.bd.Store(cur, lv.addr)
	return nil
}
