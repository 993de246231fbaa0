package passes

import (
	"tameir/internal/analysis"
	"tameir/internal/core"
	"tameir/internal/ir"
)

// InstCombine is the peephole combiner. It hosts the §3.4 rules in both
// their historical (Config.Unsound) and fixed forms:
//
//	select %c, true, %x   →  or %c, %x            (historical, unsound)
//	select %c, true, %x   →  or %c, freeze(%x)    (fixed, Freeze mode)
//	select %c, %x, false  →  and %c, %x           (historical, unsound)
//	select %c, %x, undef  →  %x                   (historical, PR31633)
//
// plus the §6 freeze clean-ups (freeze of a provably non-poison value
// folds away) and standard strength reductions. The "mul→add" rewrite
// of §3.1, illegal under legacy undef, becomes legal under the Freeze
// semantics and is performed there.
type InstCombine struct{}

// Name implements Pass.
func (InstCombine) Name() string { return "instcombine" }

func init() {
	// Peepholes insert/replace instructions within blocks only.
	Register(PassInfo{Name: "instcombine", New: func() Pass { return InstCombine{} }, Preserves: PreservesAll})
}

// Run implements Pass.
func (InstCombine) Run(f *ir.Func, cfg *Config, _ *AnalysisManager) bool {
	snap := newSnapshot()
	defer snap.release()
	changed := false
	for iter := 0; iter < 8; iter++ {
		local := false
		for _, b := range f.Blocks {
			for _, in := range snap.of(b) {
				if in.Parent() == nil {
					continue
				}
				if combineInstr(f, in, cfg) {
					local = true
				}
			}
		}
		if !local {
			break
		}
		changed = true
	}
	return changed
}

func combineInstr(f *ir.Func, in *ir.Instr, cfg *Config) bool {
	if v, ok := simplifyInstr(in, cfg); ok {
		if v != ir.Value(in) {
			replaceAndErase(in, v)
			return true
		}
	}
	if canonicalizeCommutative(in) {
		return true
	}
	switch in.Op {
	case ir.OpMul:
		return combineMul(f, in, cfg)
	case ir.OpUDiv:
		return combineUDiv(f, in, cfg)
	case ir.OpSub:
		return combineSub(f, in, cfg)
	case ir.OpSelect:
		return combineSelect(f, in, cfg)
	case ir.OpFreeze:
		return combineFreeze(f, in, cfg)
	case ir.OpICmp:
		return combineICmp(f, in, cfg)
	case ir.OpXor:
		return combineXor(f, in, cfg)
	}
	return false
}

// replaceWithNew swaps in for a freshly built instruction placed at the
// same position.
func replaceWithNew(in *ir.Instr, repl *ir.Instr) {
	repl.Nam = in.Nam
	b := in.Parent()
	b.InsertBefore(repl, in)
	in.ReplaceAllUsesWith(repl)
	b.Erase(in)
}

func combineMul(f *ir.Func, in *ir.Instr, cfg *Config) bool {
	c, ok := constOperand(in.Arg(1))
	if !ok {
		return false
	}
	x := in.Arg(0)
	// §3.1: 2*x → x+x. Illegal when x may be undef (the result set
	// grows from evens to everything); the Freeze semantics removed
	// undef, making it legal. The unsound legacy combiner did it
	// anyway.
	if c.Bits == 2 && (cfg.Sem.Mode == core.Freeze || cfg.Unsound) {
		add := ir.NewInstr(ir.OpAdd, in.Ty, x, x)
		replaceWithNew(in, add)
		return true
	}
	// mul x, 2^k → shl x, k: exact for every input including undef
	// (both yield the same set), so legal under both semantics.
	if c.Bits != 0 && c.Bits&(c.Bits-1) == 0 && c.Bits != 2 {
		k := uint64(0)
		for v := c.Bits; v > 1; v >>= 1 {
			k++
		}
		shl := ir.NewInstr(ir.OpShl, in.Ty, x, ir.ConstInt(in.Ty, k))
		// nuw/nsw transfer would need care; drop attributes (sound).
		replaceWithNew(in, shl)
		return true
	}
	return false
}

func combineUDiv(f *ir.Func, in *ir.Instr, cfg *Config) bool {
	c, ok := constOperand(in.Arg(1))
	if !ok || c.IsZero() {
		return false
	}
	x := in.Arg(0)
	w := in.Ty.Bits
	// udiv x, 2^k → lshr x, k (exact same results, poison included).
	if c.Bits&(c.Bits-1) == 0 && c.Bits > 1 {
		k := uint64(0)
		for v := c.Bits; v > 1; v >>= 1 {
			k++
		}
		shr := ir.NewInstr(ir.OpLShr, in.Ty, x, ir.ConstInt(in.Ty, k))
		replaceWithNew(in, shr)
		return true
	}
	// §3.4: udiv %a, C → select(ult %a C, 0, 1) for "negative" C (sign
	// bit set), since then a/C ∈ {0,1}. Requires select-on-poison to
	// not be UB — true under Figure 5, historically contested.
	if c.Bits>>(w-1) != 0 && c.Bits&(c.Bits-1) != 0 {
		if cfg.Sem.SelectPoisonCond == core.SelectPoisonCondUB && !cfg.Unsound &&
			// Poison %a makes the source merely poison but the target
			// UB (icmp of poison is poison, select on poison cond
			// traps) — not a refinement. When %a is provably never
			// poison the contested case is unreachable and the rewrite
			// is sound even under select-cond-UB.
			!analysis.IsGuaranteedNotToBePoison(x) {
			return false // would introduce UB on poison %a
		}
		cmp := ir.NewInstr(ir.OpICmp, ir.I1, x, c)
		cmp.Pred = ir.PredULT
		cmp.Nam = f.GenName("cmp")
		in.Parent().InsertBefore(cmp, in)
		sel := ir.NewInstr(ir.OpSelect, in.Ty, cmp, ir.ConstInt(in.Ty, 0), ir.ConstInt(in.Ty, 1))
		replaceWithNew(in, sel)
		return true
	}
	return false
}

func combineSub(f *ir.Func, in *ir.Instr, cfg *Config) bool {
	// sub x, C → add x, -C (canonicalization; attributes dropped).
	if c, ok := constOperand(in.Arg(1)); ok && !in.Ty.Equal(ir.I1) {
		add := ir.NewInstr(ir.OpAdd, in.Ty, in.Arg(0), ir.ConstInt(in.Ty, -c.Bits))
		replaceWithNew(in, add)
		return true
	}
	return false
}

func combineXor(f *ir.Func, in *ir.Instr, cfg *Config) bool {
	// xor (xor x, C1), C2 → xor x, C1^C2.
	c2, ok := constOperand(in.Arg(1))
	if !ok {
		return false
	}
	inner, ok := in.Arg(0).(*ir.Instr)
	if !ok || inner.Op != ir.OpXor {
		return false
	}
	c1, ok := constOperand(inner.Arg(1))
	if !ok {
		return false
	}
	nx := ir.NewInstr(ir.OpXor, in.Ty, inner.Arg(0), ir.ConstInt(in.Ty, c1.Bits^c2.Bits))
	replaceWithNew(in, nx)
	return true
}

func combineSelect(f *ir.Func, in *ir.Instr, cfg *Config) bool {
	cond, tv, fv := in.Arg(0), in.Arg(1), in.Arg(2)
	if !in.Ty.Equal(ir.I1) {
		return combineSelectUndefArm(f, in, cfg)
	}
	isTrue := func(v ir.Value) bool { c, ok := constOperand(v); return ok && c.Bits == 1 }
	isFalse := func(v ir.Value) bool { c, ok := constOperand(v); return ok && c.Bits == 0 }

	switch {
	case isTrue(tv) && isFalse(fv):
		// select c, true, false → c (exact under the Figure 5 select).
		replaceAndErase(in, cond)
		return true
	case isFalse(tv) && isTrue(fv):
		// select c, false, true → xor c, true.
		nx := ir.NewInstr(ir.OpXor, ir.I1, cond, ir.ConstBool(true))
		replaceWithNew(in, nx)
		return true
	case isTrue(tv):
		// select c, true, x.
		if cfg.Unsound {
			// Historical: or c, x — poison in the untaken arm leaks.
			or := ir.NewInstr(ir.OpOr, ir.I1, cond, fv)
			replaceWithNew(in, or)
			return true
		}
		if cfg.Sem.Mode == core.Freeze && cfg.FreezeAware {
			// Fixed: freeze the arm so its poison cannot override the
			// short-circuit. (The paper sketches freezing an operand;
			// freezing the arm is the variant our refinement checker
			// validates — see TestSelectToOrInvalid.)
			fz := ir.NewInstr(ir.OpFreeze, ir.I1, fv)
			fz.Nam = f.GenName("frz")
			in.Parent().InsertBefore(fz, in)
			or := ir.NewInstr(ir.OpOr, ir.I1, cond, fz)
			replaceWithNew(in, or)
			return true
		}
	case isFalse(fv):
		// select c, x, false.
		if cfg.Unsound {
			and := ir.NewInstr(ir.OpAnd, ir.I1, cond, tv)
			replaceWithNew(in, and)
			return true
		}
		if cfg.Sem.Mode == core.Freeze && cfg.FreezeAware {
			fz := ir.NewInstr(ir.OpFreeze, ir.I1, tv)
			fz.Nam = f.GenName("frz")
			in.Parent().InsertBefore(fz, in)
			and := ir.NewInstr(ir.OpAnd, ir.I1, cond, fz)
			replaceWithNew(in, and)
			return true
		}
	}
	return combineSelectUndefArm(f, in, cfg)
}

// combineSelectUndefArm is the PR31633 rule: select %c, %x, undef → %x.
// Wrong because %x could be poison, which is stronger than undef; only
// the unsound legacy combiner performs it.
func combineSelectUndefArm(f *ir.Func, in *ir.Instr, cfg *Config) bool {
	if !cfg.Unsound {
		return false
	}
	if _, isU := in.Arg(2).(*ir.Undef); isU {
		replaceAndErase(in, in.Arg(1))
		return true
	}
	if _, isU := in.Arg(1).(*ir.Undef); isU {
		replaceAndErase(in, in.Arg(2))
		return true
	}
	return false
}

func combineFreeze(f *ir.Func, in *ir.Instr, cfg *Config) bool {
	if !cfg.FreezeAware {
		return false
	}
	// §6: freeze of a value that can never be poison is the identity.
	if analysis.IsGuaranteedNotToBePoison(in.Arg(0)) {
		replaceAndErase(in, in.Arg(0))
		return true
	}
	return false
}

func combineICmp(f *ir.Func, in *ir.Instr, cfg *Config) bool {
	// Canonicalize constant to the RHS.
	if ir.IsConstLeaf(in.Arg(0)) && !ir.IsConstLeaf(in.Arg(1)) {
		a0, a1 := in.Arg(0), in.Arg(1)
		in.SetArg(0, a1)
		in.SetArg(1, a0)
		in.Pred = in.Pred.Swapped()
		return true
	}
	// icmp ne (zext i1 %c), 0 → %c; icmp eq → xor %c, true. Exact:
	// poison zext is poison, and the comparison of poison is poison.
	if c, ok := constOperand(in.Arg(1)); ok && c.IsZero() && (in.Pred == ir.PredEQ || in.Pred == ir.PredNE) {
		if zx, ok := in.Arg(0).(*ir.Instr); ok && zx.Op == ir.OpZExt && zx.Arg(0).Type().Equal(ir.I1) {
			inner := zx.Arg(0)
			if in.Pred == ir.PredNE {
				replaceAndErase(in, inner)
			} else {
				nx := ir.NewInstr(ir.OpXor, ir.I1, inner, ir.ConstBool(true))
				replaceWithNew(in, nx)
			}
			if zx.NumUses() == 0 && zx.Parent() != nil {
				zx.Parent().Erase(zx)
			}
			return true
		}
	}
	// icmp eq (xor x, C), 0 → icmp eq x, C.
	if c, ok := constOperand(in.Arg(1)); ok && c.IsZero() && (in.Pred == ir.PredEQ || in.Pred == ir.PredNE) {
		if x, ok := in.Arg(0).(*ir.Instr); ok && x.Op == ir.OpXor {
			if xc, ok := constOperand(x.Arg(1)); ok {
				ni := ir.NewInstr(ir.OpICmp, ir.I1, x.Arg(0), xc)
				ni.Pred = in.Pred
				replaceWithNew(in, ni)
				return true
			}
		}
	}
	return false
}
