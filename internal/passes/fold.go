package passes

import (
	"tameir/internal/core"
	"tameir/internal/ir"
)

// scalarFromLeaf converts a constant-leaf operand to a core.Scalar.
func scalarFromLeaf(v ir.Value) (core.Scalar, bool) {
	switch c := v.(type) {
	case *ir.Const:
		return core.C(c.Bits), true
	case *ir.Poison:
		return core.PoisonScalar, true
	case *ir.Undef:
		return core.UndefScalar, true
	}
	return core.Scalar{}, false
}

// leafFromScalar converts a scalar result back to a constant leaf.
func leafFromScalar(ty ir.Type, s core.Scalar) ir.Value {
	switch s.Kind {
	case core.PoisonVal:
		return ir.NewPoison(ty)
	case core.UndefVal:
		return ir.NewUndef(ty)
	}
	return ir.ConstInt(ty, s.Bits)
}

// FoldConstant attempts to evaluate in when its operands are constant
// leaves, returning the replacement value. Only refinements are
// produced:
//
//   - fully concrete operands fold exactly (a constant-UB division
//     folds to poison, a sound refinement since UB ⊒ poison);
//   - a poison operand folds to poison (division by poison is UB ⊒
//     poison);
//   - undef operands fold only through rules that pick a *member* of
//     the result set (always sound) or to undef when the operation is
//     surjective in that operand (so the result set is exactly "any
//     value"). In particular mul x, 2 with x undef does NOT fold to
//     undef (§3.1: only even results are possible).
//
// freezeAware additionally enables the §6 freeze clean-ups
// (freeze(freeze(x)), freeze(const), freeze(poison)); a freeze-blind
// combiner leaves every freeze alone, like pre-prototype LLVM.
func FoldConstant(in *ir.Instr, mode core.Mode, freezeAware bool) (ir.Value, bool) {
	switch {
	case in.Op.IsBinop() && in.Ty.IsInt():
		x, okx := scalarFromLeaf(in.Arg(0))
		y, oky := scalarFromLeaf(in.Arg(1))
		if !okx || !oky {
			return nil, false
		}
		return foldBinop(in, x, y, mode)
	case in.Op == ir.OpICmp && in.Arg(0).Type().IsInt():
		x, okx := scalarFromLeaf(in.Arg(0))
		y, oky := scalarFromLeaf(in.Arg(1))
		if !okx || !oky {
			return nil, false
		}
		if x.Kind == core.PoisonVal || y.Kind == core.PoisonVal {
			return ir.NewPoison(ir.I1), true
		}
		if x.Kind == core.UndefVal || y.Kind == core.UndefVal {
			// icmp is surjective onto {0,1} in an undef operand unless
			// the predicate is degenerate; picking a member (false) is
			// always sound, but eq/ne against a full-range undef can
			// also produce both. Fold to a member: false for
			// predicates that can be false, which is all of them here
			// except when both are undef... keep it simple and sound:
			// don't fold.
			return nil, false
		}
		w := uint(in.Arg(0).Type().Bits)
		return ir.ConstBool(core.EvalICmpConcrete(in.Pred, w, x.Bits, y.Bits)), true
	case in.Op == ir.OpZExt, in.Op == ir.OpSExt, in.Op == ir.OpTrunc:
		if !in.Ty.IsInt() || !in.Arg(0).Type().IsInt() {
			return nil, false
		}
		x, ok := scalarFromLeaf(in.Arg(0))
		if !ok {
			return nil, false
		}
		switch x.Kind {
		case core.PoisonVal:
			return ir.NewPoison(in.Ty), true
		case core.UndefVal:
			// trunc is surjective: trunc(undef) = undef. zext/sext are
			// not (high bits constrained): fold to 0, a member.
			if in.Op == ir.OpTrunc {
				return ir.NewUndef(in.Ty), true
			}
			return ir.ConstInt(in.Ty, 0), true
		}
		s := core.EvalCastLane(in.Op, uint(in.Arg(0).Type().Bits), uint(in.Ty.Bits), x)
		return leafFromScalar(in.Ty, s), true
	case in.Op == ir.OpSelect && !in.Arg(0).Type().IsVec():
		c, ok := scalarFromLeaf(in.Arg(0))
		if !ok {
			return nil, false
		}
		switch c.Kind {
		case core.PoisonVal:
			// Figure 5: select on poison condition is poison. (Under
			// the legacy select-is-UB reading this is also a sound
			// refinement.)
			return ir.NewPoison(in.Ty), true
		case core.UndefVal:
			// Either arm is a member; pick the first.
			return in.Arg(1), true
		}
		if c.Bits != 0 {
			return in.Arg(1), true
		}
		return in.Arg(2), true
	case in.Op == ir.OpFreeze:
		if !freezeAware {
			return nil, false
		}
		switch a := in.Arg(0).(type) {
		case *ir.Const:
			return a, true // §6: freeze(const) → const
		case *ir.Poison, *ir.Undef:
			// freeze of deferred UB is an arbitrary stable value; pick
			// the member 0.
			return ir.ConstInt(in.Ty, 0), true
		case *ir.Instr:
			if a.Op == ir.OpFreeze {
				return a, true // §6: freeze(freeze(x)) → freeze(x)
			}
		}
		return nil, false
	}
	return nil, false
}

func foldBinop(in *ir.Instr, x, y core.Scalar, mode core.Mode) (ir.Value, bool) {
	w := uint(in.Ty.Bits)
	// Division by poison or zero is UB; poison is a sound refinement.
	if in.Op.IsDivRem() && (y.Kind == core.PoisonVal || (y.Kind == core.Concrete && y.Bits == 0)) {
		return ir.NewPoison(in.Ty), true
	}
	if x.Kind == core.PoisonVal || y.Kind == core.PoisonVal {
		return ir.NewPoison(in.Ty), true
	}
	if x.Kind == core.UndefVal || y.Kind == core.UndefVal {
		return foldBinopUndef(in, x, y)
	}
	// EvalBinopConcrete already returns the mode's over-shift choice
	// (undef under legacy, poison under freeze).
	s, ub := core.EvalBinopConcrete(in.Op, in.Attrs, w, x.Bits, y.Bits, mode)
	if ub != "" {
		return ir.NewPoison(in.Ty), true
	}
	return leafFromScalar(in.Ty, s), true
}

// foldBinopUndef folds binops with an undef operand, choosing either
// the exact undef result (surjective ops) or a member of the result
// set.
func foldBinopUndef(in *ir.Instr, x, y core.Scalar) (ir.Value, bool) {
	undef := func() (ir.Value, bool) { return ir.NewUndef(in.Ty), true }
	member := func(v uint64) (ir.Value, bool) { return ir.ConstInt(in.Ty, v), true }
	bothUndef := x.Kind == core.UndefVal && y.Kind == core.UndefVal
	switch in.Op {
	case ir.OpAdd, ir.OpSub:
		if in.Attrs == 0 {
			return undef() // x + undef is surjective
		}
		return member(0)
	case ir.OpXor:
		if in.Attrs == 0 && !bothUndef {
			return undef()
		}
		return nil, false
	case ir.OpAnd:
		return member(0) // undef can be 0
	case ir.OpOr:
		return member(ir.TruncBits(^uint64(0), uint(in.Ty.Bits))) // undef can be all-ones
	case ir.OpMul:
		return member(0)
	case ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem:
		// Undef divisor could be zero → possible UB; the set includes
		// UB so anything refines: fold to poison... no: UB is only
		// *possible*, not guaranteed. The result set is
		// {UB} ∪ {values}; a refinement must pick from the union only
		// if UB is guaranteed. It is not, so pick a member value:
		// divisor=1 gives x; numerator undef gives 0.
		if y.Kind == core.UndefVal {
			return nil, false // leave it; simplify would need x itself
		}
		return member(0)
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		return member(0) // shift of/by undef can be 0 (choose 0 operand)
	}
	return nil, false
}
