package passes

import (
	"tameir/internal/core"
	"tameir/internal/ir"
)

// SimplifyCFG cleans up control flow: constant-folds branches, merges
// straight-line block chains, removes forwarding blocks, and converts
// small diamonds/triangles of phis into select instructions.
//
// The phi→select conversion is the §3.4 battleground: it is sound when
// select takes the dynamically chosen arm's value (Figure 5), and
// UNSOUND under the legacy "either arm's poison leaks" reading,
// because the branch never evaluated the untaken arm. The fixed
// pipeline therefore only performs it under the Freeze semantics;
// Config.Unsound re-enables it under legacy semantics, reproducing the
// historical bug.
type SimplifyCFG struct{}

// Name implements Pass.
func (SimplifyCFG) Name() string { return "simplifycfg" }

// Run implements Pass.
func (SimplifyCFG) Run(f *ir.Func, cfg *Config, _ *AnalysisManager) bool {
	changed := false
	for {
		local := false
		local = foldConstantBranches(f) || local
		local = removeUnreachableBlocks(f) || local
		local = mergeBlockChains(f) || local
		local = skipForwardingBlocks(f) || local
		if phiToSelectAllowed(cfg) {
			local = phiToSelect(f, cfg) || local
		}
		if !local {
			break
		}
		changed = true
	}
	return changed
}

func phiToSelectAllowed(cfg *Config) bool {
	if cfg.Sem.Mode == core.Freeze {
		return true // Figure 5 select semantics: sound
	}
	if cfg.Unsound {
		return true // historical behaviour regardless of select reading
	}
	// Legacy fixed: sound only if select does not leak the untaken
	// arm's poison and a poison condition is not UB.
	return !cfg.Sem.SelectArmPoisonEither && cfg.Sem.SelectPoisonCond == core.SelectPoisonCondPoison
}

// foldConstantBranches rewrites conditional branches on constant
// conditions; br poison/undef picks an arbitrary target (refinement:
// the source either has UB — which justifies anything — or chooses
// nondeterministically).
func foldConstantBranches(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || !t.IsConditionalBr() {
			continue
		}
		var taken, dead *ir.Block
		switch c := t.Arg(0).(type) {
		case *ir.Const:
			if c.Bits != 0 {
				taken, dead = t.BlockArg(0), t.BlockArg(1)
			} else {
				taken, dead = t.BlockArg(1), t.BlockArg(0)
			}
		case *ir.Poison, *ir.Undef:
			taken, dead = t.BlockArg(0), t.BlockArg(1)
		default:
			// Same target on both edges.
			if t.BlockArg(0) == t.BlockArg(1) {
				taken, dead = t.BlockArg(0), nil
			} else {
				continue
			}
		}
		if dead != nil && dead != taken {
			for _, ph := range dead.Phis() {
				ph.RemovePhiIncoming(b)
			}
		}
		nbr := ir.NewInstr(ir.OpBr, ir.Void)
		nbr.AddBlockArg(taken)
		b.InsertBefore(nbr, t)
		b.Remove(t)
		dropOperands(t)
		changed = true
	}
	return changed
}

// mergeBlockChains merges b's unique successor into b when that
// successor has b as its unique predecessor.
func mergeBlockChains(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpBr || t.IsConditionalBr() {
			continue
		}
		s := t.BlockArg(0)
		if s == b || s == f.Entry() {
			continue
		}
		preds := f.Preds(s)
		if len(preds) != 1 || preds[0] != b {
			continue
		}
		// Phis in s have a single incoming: fold them.
		for _, ph := range append([]*ir.Instr(nil), s.Phis()...) {
			v, _ := ph.PhiIncoming(b)
			replaceAndErase(ph, v)
		}
		// Remove b's terminator, move s's instructions into b.
		b.Remove(t)
		dropOperands(t)
		for _, in := range append([]*ir.Instr(nil), s.Instrs()...) {
			s.Remove(in)
			b.Append(in)
		}
		// Successors of s now flow from b; phi incomings referencing s
		// must reference b.
		for _, ss := range b.Succs() {
			for _, ph := range ss.Phis() {
				for i := 0; i < ph.NumBlocks(); i++ {
					if ph.BlockArg(i) == s {
						ph.SetBlockArg(i, b)
					}
				}
			}
		}
		f.RemoveBlock(s)
		changed = true
	}
	return changed
}

// skipForwardingBlocks retargets edges through blocks containing only
// an unconditional branch, when no phi complications arise.
func skipForwardingBlocks(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		if b == f.Entry() {
			continue
		}
		instrs := b.Instrs()
		if len(instrs) != 1 {
			continue
		}
		t := instrs[0]
		if t.Op != ir.OpBr || t.IsConditionalBr() {
			continue
		}
		dst := t.BlockArg(0)
		if dst == b {
			continue
		}
		preds := f.Preds(b)
		if len(preds) == 0 {
			continue
		}
		// If dst has phis, retargeting is only simple when each pred
		// is not already a predecessor of dst (no duplicate incoming)
		// and we can copy b's incoming value for each new pred.
		ok := true
		dstPreds := map[*ir.Block]bool{}
		for _, p := range f.Preds(dst) {
			dstPreds[p] = true
		}
		for _, p := range preds {
			if dstPreds[p] {
				ok = false // would need edge duplication reasoning
				break
			}
		}
		if !ok {
			continue
		}
		for _, ph := range dst.Phis() {
			v, found := ph.PhiIncoming(b)
			if !found {
				ok = false
				break
			}
			for _, p := range preds {
				ph.AddPhiIncoming(v, p)
			}
			ph.RemovePhiIncoming(b)
		}
		if !ok {
			continue
		}
		for _, p := range preds {
			pt := p.Terminator()
			for i := 0; i < pt.NumBlocks(); i++ {
				if pt.BlockArg(i) == b {
					pt.SetBlockArg(i, dst)
				}
			}
		}
		f.RemoveBlock(b)
		changed = true
	}
	return changed
}

// phiToSelect converts the diamond
//
//	head:  br %c, %t, %e
//	t:     br %m            (empty)
//	e:     br %m            (empty)
//	m:     %x = phi [a, t], [b, e]
//
// and the triangle variant into %x = select %c, a, b in head.
func phiToSelect(f *ir.Func, cfg *Config) bool {
	changed := false
	for _, m := range f.Blocks {
		phis := m.Phis()
		if len(phis) == 0 {
			continue
		}
		preds := f.Preds(m)
		if len(preds) != 2 {
			continue
		}
		// Identify the branching head and per-edge values.
		headT, okT := diamondLeg(f, preds[0], m)
		headE, okE := diamondLeg(f, preds[1], m)
		if !okT || !okE || headT != headE {
			continue
		}
		head := headT
		ht := head.Terminator()
		if ht == nil || !ht.IsConditionalBr() {
			continue
		}
		cond := ht.Arg(0)
		// Map the branch's true/false edges to m's two predecessors.
		trueLeg, falseLeg := ht.BlockArg(0), ht.BlockArg(1)
		var truePred, falsePred *ir.Block
		for _, p := range preds {
			if p == head {
				// Triangle: the head branches directly to m.
				if trueLeg == m {
					truePred = head
				}
				if falseLeg == m {
					falsePred = head
				}
				continue
			}
			if p == trueLeg {
				truePred = p
			}
			if p == falseLeg {
				falsePred = p
			}
		}
		if truePred == nil || falsePred == nil || truePred == falsePred {
			continue
		}
		// Both legs (when distinct from head) must be empty forwarders
		// with m as the single successor and head as single pred.
		legEmpty := func(p *ir.Block) bool {
			if p == head {
				return true
			}
			return len(p.Instrs()) == 1 && len(f.Preds(p)) == 1
		}
		if !legEmpty(truePred) || !legEmpty(falsePred) {
			continue
		}
		// Build selects in head before its terminator.
		for _, ph := range append([]*ir.Instr(nil), phis...) {
			tv, ok1 := ph.PhiIncoming(truePred)
			fv, ok2 := ph.PhiIncoming(falsePred)
			if !ok1 || !ok2 {
				return changed
			}
			sel := ir.NewInstr(ir.OpSelect, ph.Ty, cond, tv, fv)
			sel.Nam = f.GenName("sel")
			head.InsertBefore(sel, ht)
			replaceAndErase(ph, sel)
		}
		// Rewire head to jump straight to m.
		nbr := ir.NewInstr(ir.OpBr, ir.Void)
		nbr.AddBlockArg(m)
		head.InsertBefore(nbr, ht)
		head.Remove(ht)
		dropOperands(ht)
		// The legs become unreachable; clean them up, and restart the
		// scan rather than iterating over a stale block list.
		removeUnreachableBlocks(f)
		return true
	}
	return changed
}

// diamondLeg identifies the branch head for m's predecessor p: p itself
// if p branches conditionally (triangle), else p's unique predecessor
// when p is an empty forwarder.
func diamondLeg(f *ir.Func, p *ir.Block, m *ir.Block) (*ir.Block, bool) {
	t := p.Terminator()
	if t == nil {
		return nil, false
	}
	if t.IsConditionalBr() {
		return p, true
	}
	if len(p.Instrs()) != 1 {
		return nil, false
	}
	pp := f.Preds(p)
	if len(pp) != 1 {
		return nil, false
	}
	return pp[0], true
}

// dropOperands releases the operand uses of a detached instruction.
func dropOperands(in *ir.Instr) {
	for i := in.NumArgs() - 1; i >= 0; i-- {
		in.SetArg(i, ir.NewPoison(in.Arg(i).Type()))
	}
}
