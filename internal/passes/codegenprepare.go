package passes

import (
	"tameir/internal/ir"
)

// CodeGenPrepare is the late pre-lowering pass described in §6: it
// reshapes IR for instruction selection. Two freeze-related rewrites
// from the paper are implemented:
//
//   - "freeze(icmp %x, const)" → "icmp (freeze %x), const" when the
//     comparison has a single use, so the backend can sink the compare
//     next to its branch. (The paper notes this must run late: the
//     transformed expression is a refinement of the original and would
//     confuse mid-level analyses like scalar evolution.)
//   - compares used only by a conditional branch in another block are
//     sunk next to the branch (duplicating a compare is cheaper than
//     keeping its flag result live on x86-likes).
type CodeGenPrepare struct{}

// Name implements Pass.
func (CodeGenPrepare) Name() string { return "codegenprepare" }

func init() {
	// Splits blocks for selects lowered to control flow.
	Register(PassInfo{Name: "codegenprepare", New: func() Pass { return CodeGenPrepare{} }, Preserves: PreservesNone})
}

// Run implements Pass.
func (CodeGenPrepare) Run(f *ir.Func, cfg *Config, _ *AnalysisManager) bool {
	snap := newSnapshot()
	defer snap.release()
	changed := false
	if cfg.FreezeAware {
		for _, b := range f.Blocks {
			for _, in := range snap.of(b) {
				if in.Parent() == nil || in.Op != ir.OpFreeze {
					continue
				}
				cmp, ok := in.Arg(0).(*ir.Instr)
				if !ok || cmp.Op != ir.OpICmp || cmp.NumUses() != 1 {
					continue
				}
				if _, rhsConst := cmp.Arg(1).(*ir.Const); !rhsConst {
					continue
				}
				if !cmp.Arg(0).Type().IsInt() {
					continue
				}
				// Build icmp(freeze x, C) in place of the freeze.
				fz := ir.NewInstr(ir.OpFreeze, cmp.Arg(0).Type(), cmp.Arg(0))
				fz.Nam = f.GenName("cgp.frz")
				in.Parent().InsertBefore(fz, in)
				ni := ir.NewInstr(ir.OpICmp, ir.I1, fz, cmp.Arg(1))
				ni.Pred = cmp.Pred
				replaceWithNew(in, ni)
				if cmp.NumUses() == 0 && cmp.Parent() != nil {
					cmp.Parent().Erase(cmp)
				}
				changed = true
			}
		}
	}
	// Sink single-use compares next to their branch.
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || !t.IsConditionalBr() {
			continue
		}
		cmp, ok := t.Arg(0).(*ir.Instr)
		if !ok || cmp.Op != ir.OpICmp || cmp.NumUses() != 1 || cmp.Parent() == b {
			continue
		}
		// A freeze feeding the compare pins it: freezes must not be
		// sunk into different control flow... a compare is fine to
		// duplicate, but if its operand is a freeze defined alongside,
		// moving the compare is still fine (the freeze stays). Just
		// move the compare.
		cmp.Parent().Remove(cmp)
		b.InsertBefore(cmp, t)
		changed = true
	}
	// Branch-on-and/or splitting: "on x86 it is usually preferable to
	// lower a branch on an and/or operation into a pair of jumps"
	// (§6). A frozen and/or blocks the split unless the pass knows to
	// push the freeze onto the operands first (also §6: "we modified
	// CodeGenPrepare... to support freeze").
	for _, b := range append([]*ir.Block(nil), f.Blocks...) {
		if splitBranchOnAndOr(f, b, cfg) {
			changed = true
		}
	}
	return changed
}

// splitBranchOnAndOr rewrites
//
//	br (and %a, %b), %T, %F   →   br %a, %check, %F
//	                              check: br %b, %T, %F
//
// (dually for or). Exact under the Figure 5 semantics: the original
// branch is UB iff the and/or is poison, which happens iff a poison
// operand is actually consulted by the split chain. When the condition
// is freeze(and/or ...) with a single use, the freeze is first pushed
// onto the operands — a refinement (independent per-operand freezes
// only shrink the post-and nondeterminism), and exactly the freeze
// support §6 describes.
func splitBranchOnAndOr(f *ir.Func, b *ir.Block, cfg *Config) bool {
	t := b.Terminator()
	if t == nil || !t.IsConditionalBr() {
		return false
	}
	cond, ok := t.Arg(0).(*ir.Instr)
	if !ok {
		return false
	}
	// Look through (and push down) a single-use freeze.
	if cond.Op == ir.OpFreeze {
		if !cfg.FreezeAware {
			return false // blocked, like the early prototype (§6)
		}
		inner, isInstr := cond.Arg(0).(*ir.Instr)
		if !isInstr || (inner.Op != ir.OpAnd && inner.Op != ir.OpOr) ||
			!inner.Ty.Equal(ir.I1) || cond.NumUses() != 1 || inner.NumUses() != 1 {
			return false
		}
		fa := ir.NewInstr(ir.OpFreeze, ir.I1, inner.Arg(0))
		fa.Nam = f.GenName("cgp.frz")
		fb := ir.NewInstr(ir.OpFreeze, ir.I1, inner.Arg(1))
		fb.Nam = f.GenName("cgp.frz")
		b.InsertBefore(fa, t)
		b.InsertBefore(fb, t)
		nop := ir.NewInstr(inner.Op, ir.I1, fa, fb)
		replaceWithNew(cond, nop)
		if inner.NumUses() == 0 && inner.Parent() != nil {
			inner.Parent().Erase(inner)
		}
		cond = nop
	}
	if (cond.Op != ir.OpAnd && cond.Op != ir.OpOr) || !cond.Ty.Equal(ir.I1) || cond.NumUses() != 1 {
		return false
	}
	if cond.Parent() != b {
		return false
	}
	a, c := cond.Arg(0), cond.Arg(1)
	tTrue, tFalse := t.BlockArg(0), t.BlockArg(1)
	if tTrue == tFalse || tTrue == b || tFalse == b {
		return false
	}
	check := f.NewBlock(b.Name() + ".cc")
	cbd := ir.NewBuilder(check)
	cbd.CondBr(c, tTrue, tFalse)
	// Rewrite the original branch.
	nbr := ir.NewInstr(ir.OpBr, ir.Void, a)
	if cond.Op == ir.OpAnd {
		nbr.AddBlockArg(check)
		nbr.AddBlockArg(tFalse)
	} else {
		nbr.AddBlockArg(tTrue)
		nbr.AddBlockArg(check)
	}
	b.InsertBefore(nbr, t)
	b.Remove(t)
	dropOperands(t)
	if cond.NumUses() == 0 && cond.Parent() != nil {
		cond.Parent().Erase(cond)
	}
	// Successor phis: the edge from b may now come from check instead
	// (and, for the still-direct edge, stays from b). Add the check
	// incoming with the same value as b's.
	for _, s := range []*ir.Block{tTrue, tFalse} {
		for _, ph := range s.Phis() {
			v, found := ph.PhiIncoming(b)
			if !found {
				continue
			}
			// Is s still a successor of b?
			still := false
			for _, bs := range b.Succs() {
				if bs == s {
					still = true
				}
			}
			fromCheck := false
			for _, cs := range check.Succs() {
				if cs == s {
					fromCheck = true
				}
			}
			if fromCheck {
				ph.AddPhiIncoming(v, check)
			}
			if !still {
				ph.RemovePhiIncoming(b)
			}
		}
	}
	return true
}
