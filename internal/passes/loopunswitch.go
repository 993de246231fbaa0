package passes

import (
	"tameir/internal/analysis"
	"tameir/internal/core"
	"tameir/internal/ir"
)

// LoopUnswitch hoists a loop-invariant conditional branch out of a
// loop by cloning the loop: one copy specialized for the condition
// being true, one for false, selected once before the loop.
//
// Under the paper's semantics, branching on the hoisted condition
// before the loop would introduce UB when the condition is poison and
// the loop would never have executed. The fixed variant (§5.1)
// therefore branches on freeze(cond); the Config.Unsound variant
// reproduces LLVM's historical unswitching, which branched on the raw
// condition and assumed branch-on-poison was a nondeterministic choice
// — the assumption that collides with GVN's (§3.3, PR27506).
type LoopUnswitch struct{}

// Name implements Pass.
func (LoopUnswitch) Name() string { return "loopunswitch" }

// Run implements Pass.
func (LoopUnswitch) Run(f *ir.Func, cfg *Config, am *AnalysisManager) bool {
	changed := false
	// Unswitch at most a few times per run to bound code growth.
	for budget := 2; budget > 0; budget-- {
		li := am.LoopInfo()
		done := false
		for _, l := range li.Loops {
			if unswitchLoop(f, l, cfg) {
				changed = true
				done = true
				// Loop structures are stale; evict so the next round's
				// LoopInfo query recomputes over the rewritten CFG.
				am.InvalidateAll()
				break
			}
		}
		if !done {
			break
		}
	}
	return changed
}

// branchAlwaysExecutes reports whether every execution that enters the
// loop reaches block b: b dominates every latch and every in-loop
// block with an exit edge.
func branchAlwaysExecutes(f *ir.Func, l *analysis.Loop, b *ir.Block) bool {
	dt := analysis.NewDomTree(f)
	for _, latch := range l.Latches {
		if !dt.Dominates(b, latch) {
			return false
		}
	}
	for blk := range l.Blocks {
		for _, s := range blk.Succs() {
			if !l.Blocks[s] && !dt.Dominates(b, blk) {
				return false
			}
		}
	}
	return true
}

func unswitchLoop(f *ir.Func, l *analysis.Loop, cfg *Config) bool {
	ph := l.Preheader(f)
	if ph == nil {
		return false
	}
	// Find an invariant conditional branch strictly inside the loop
	// whose targets are both in the loop (a guard of loop body work,
	// like the paper's "if (c2)"), or in-loop with one exit edge.
	var br *ir.Instr
	for b := range l.Blocks {
		t := b.Terminator()
		if t == nil || !t.IsConditionalBr() {
			continue
		}
		if b == l.Header {
			continue // the loop's own exit test
		}
		if _, isConst := t.Arg(0).(*ir.Const); isConst {
			continue
		}
		if l.IsInvariant(t.Arg(0)) {
			br = t
			break
		}
	}
	if br == nil {
		return false
	}
	cond := br.Arg(0)

	// All loop-defined values used outside the loop must be consumed
	// by phis in exit blocks (LCSSA-ish); otherwise we skip.
	for b := range l.Blocks {
		for _, in := range b.Instrs() {
			if in.Ty.IsVoid() {
				continue
			}
			for _, u := range in.Users() {
				if u.Parent() == nil {
					continue
				}
				if !l.Blocks[u.Parent()] && u.Op != ir.OpPhi {
					return false
				}
				if !l.Blocks[u.Parent()] && u.Op == ir.OpPhi {
					// Must be an exit block adjacent to the loop.
					adjacent := false
					for _, p := range f.Preds(u.Parent()) {
						if l.Blocks[p] {
							adjacent = true
						}
					}
					if !adjacent {
						return false
					}
				}
			}
		}
	}

	// Clone the loop body.
	vmap := map[ir.Value]ir.Value{}
	bmap := map[*ir.Block]*ir.Block{}
	var origBlocks []*ir.Block
	for _, b := range f.Blocks { // deterministic order
		if l.Blocks[b] {
			origBlocks = append(origBlocks, b)
		}
	}
	for _, b := range origBlocks {
		nb := f.NewBlock(b.Name() + ".us")
		bmap[b] = nb
	}
	for _, b := range origBlocks {
		nb := bmap[b]
		for _, in := range b.Instrs() {
			ni := ir.NewInstr(in.Op, in.Ty)
			ni.Attrs = in.Attrs
			ni.Pred = in.Pred
			ni.AllocTy = in.AllocTy
			ni.Callee = in.Callee
			if !in.Ty.IsVoid() {
				ni.Nam = f.GenName(in.Name() + ".us")
			}
			nb.Append(ni)
			vmap[in] = ni
		}
	}
	// Wire cloned operands.
	for _, b := range origBlocks {
		cloneIdx := 0
		for _, in := range b.Instrs() {
			ni := bmap[b].Instrs()[cloneIdx]
			cloneIdx++
			for _, a := range in.Args() {
				if na, ok := vmap[a]; ok {
					ni.AddArg(na)
				} else {
					ni.AddArg(a)
				}
			}
			for i := 0; i < in.NumBlocks(); i++ {
				tb := in.BlockArg(i)
				if nb, ok := bmap[tb]; ok {
					ni.AddBlockArg(nb)
				} else {
					ni.AddBlockArg(tb)
				}
			}
		}
	}
	// Exit-block phis: add incomings from cloned predecessors.
	for _, e := range l.Exits() {
		for _, phi := range e.Phis() {
			for i := 0; i < phi.NumBlocks(); i++ {
				p := phi.BlockArg(i)
				if np, ok := bmap[p]; ok {
					v := phi.Arg(i)
					if nv, ok := vmap[v]; ok {
						phi.AddPhiIncoming(nv, np)
					} else {
						phi.AddPhiIncoming(v, np)
					}
				}
			}
		}
	}
	// Specialize: original loop takes the true edge, clone the false
	// edge.
	specialize := func(t *ir.Instr, takeTrue bool) {
		taken := t.BlockArg(0)
		dead := t.BlockArg(1)
		if !takeTrue {
			taken, dead = dead, taken
		}
		if dead != taken {
			for _, p := range dead.Phis() {
				p.RemovePhiIncoming(t.Parent())
			}
		}
		nbr := ir.NewInstr(ir.OpBr, ir.Void)
		nbr.AddBlockArg(taken)
		blk := t.Parent()
		blk.InsertBefore(nbr, t)
		blk.Remove(t)
		dropOperands(t)
	}
	clonedBr := vmap[br].(*ir.Instr)
	specialize(br, true)
	specialize(clonedBr, false)

	// Rewrite the preheader: branch on (frozen) cond to the two loop
	// headers.
	phTerm := ph.Terminator()
	hoisted := cond
	// Freezing is needed exactly when branch-on-poison is UB (always
	// under the Freeze semantics; also under a legacy pipeline that
	// resolved §3.3 in GVN's favour). The historical unswitching
	// (Unsound) never froze.
	//
	// §5.1's refinement: "Freeze can be avoided if the branch on c2 is
	// placed in the loop pre-header (since then the loop is guaranteed
	// to execute at least once)" — generalized: if entering the loop
	// guarantees the branch executes, hoisting it to the preheader adds
	// no UB the original didn't have. Entering the loop is itself
	// guaranteed (the preheader branches unconditionally to the
	// header), so the condition is that the branch's block dominates
	// every block that can leave the loop (every latch and every
	// exiting block).
	guaranteed := branchAlwaysExecutes(f, l, br.Parent())
	if cfg.Sem.BranchPoison == core.BranchPoisonIsUB && !cfg.Unsound && !guaranteed {
		fz := ir.NewInstr(ir.OpFreeze, cond.Type(), cond)
		fz.Nam = f.GenName("unswitch.frz")
		ph.InsertBefore(fz, phTerm)
		hoisted = fz
	}
	nbr := ir.NewInstr(ir.OpBr, ir.Void, hoisted)
	nbr.AddBlockArg(l.Header)
	nbr.AddBlockArg(bmap[l.Header])
	ph.InsertBefore(nbr, phTerm)
	ph.Remove(phTerm)
	dropOperands(phTerm)

	// Header phis in both copies keep their preheader incoming — the
	// preheader is still the predecessor of both headers. Nothing to
	// fix there. Cloned header phis already reference ph via the
	// non-loop incoming (not in bmap).
	return true
}
