package passes

import (
	"tameir/internal/ir"
)

// JumpThreading forwards a predecessor directly to a branch target
// when the branch condition is known along that predecessor's edge:
//
//	b:  %c = phi i1 [ true, %p ], [ %x, %q ]
//	    br %c, %t, %e
//
// threads p straight to t. With Config.FreezeAware the pass also looks
// through a freeze of the phi (freeze(true) is true); without it, a
// freeze blocks threading — reproducing the paper's §7.2 compile-time
// anecdote where "an optimization (jump threading) did not kick in
// because of not knowing about freeze".
type JumpThreading struct{}

// Name implements Pass.
func (JumpThreading) Name() string { return "jumpthreading" }

// Run implements Pass.
func (JumpThreading) Run(f *ir.Func, cfg *Config, _ *AnalysisManager) bool {
	changed := false
	for {
		local := false
		for _, b := range f.Blocks {
			if threadBlock(f, b, cfg) {
				local = true
				break // CFG changed; rescan
			}
		}
		if !local {
			break
		}
		changed = true
	}
	return changed
}

func threadBlock(f *ir.Func, b *ir.Block, cfg *Config) bool {
	t := b.Terminator()
	if t == nil || !t.IsConditionalBr() || b == f.Entry() {
		return false
	}
	cond := t.Arg(0)
	// Look through freeze if the pass knows about it: a frozen
	// constant is that constant, so per-edge constants still thread.
	if fz, ok := cond.(*ir.Instr); ok && fz.Op == ir.OpFreeze {
		if !cfg.FreezeAware {
			return false
		}
		cond = fz.Arg(0)
	}
	phi, ok := cond.(*ir.Instr)
	if !ok || phi.Op != ir.OpPhi || phi.Parent() != b {
		return false
	}
	// The block must contain only phis and the branch (plus possibly
	// the freeze): otherwise duplication would be needed.
	for _, in := range b.Instrs() {
		if in.Op == ir.OpPhi || in == t {
			continue
		}
		if in.Op == ir.OpFreeze && ir.Value(in) == t.Arg(0) {
			continue
		}
		return false
	}
	// Find a predecessor with a constant incoming.
	for i := 0; i < phi.NumArgs(); i++ {
		c, isConst := phi.Arg(i).(*ir.Const)
		if !isConst {
			continue
		}
		pred := phi.BlockArg(i)
		target := t.BlockArg(0)
		if c.Bits == 0 {
			target = t.BlockArg(1)
		}
		if target == b || pred == b {
			continue
		}
		// Retarget pred's edge from b to target. Safe only when
		// target's phis can absorb the new edge: b must currently be a
		// predecessor of target, and pred must not already be one.
		predIsTargetPred := false
		for _, p := range f.Preds(target) {
			if p == pred {
				predIsTargetPred = true
			}
		}
		if predIsTargetPred {
			continue
		}
		// Other phis in b flow into target's phis? Only handle the
		// case where target has phis referencing b's phis or values:
		// copy the per-edge value.
		ok := true
		for _, tph := range target.Phis() {
			v, found := tph.PhiIncoming(b)
			if !found {
				ok = false
				break
			}
			// If the incoming value is a phi of b, use its value on
			// pred's edge; otherwise it must dominate pred's edge —
			// conservatively require a constant, parameter, or a phi
			// of b.
			switch vv := v.(type) {
			case *ir.Instr:
				if vv.Op == ir.OpPhi && vv.Parent() == b {
					continue
				}
				ok = false
			default:
				// constant leaves and params are fine
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		for _, tph := range target.Phis() {
			v, _ := tph.PhiIncoming(b)
			if vv, isI := v.(*ir.Instr); isI && vv.Op == ir.OpPhi && vv.Parent() == b {
				pv, _ := vv.PhiIncoming(pred)
				tph.AddPhiIncoming(pv, pred)
			} else {
				tph.AddPhiIncoming(v, pred)
			}
		}
		// Point pred's terminator at target and remove pred's
		// incoming from b's phis.
		pt := pred.Terminator()
		for j := 0; j < pt.NumBlocks(); j++ {
			if pt.BlockArg(j) == b {
				pt.SetBlockArg(j, target)
			}
		}
		for _, ph := range b.Phis() {
			ph.RemovePhiIncoming(pred)
		}
		// b may have become unreachable or its phis single-incoming;
		// later cleanup passes handle that. Single-incoming phis are
		// folded here to keep the verifier happy.
		for _, ph := range append([]*ir.Instr(nil), b.Phis()...) {
			if ph.NumArgs() == 1 {
				replaceAndErase(ph, ph.Arg(0))
			}
		}
		removeUnreachableBlocks(f)
		return true
	}
	return false
}
