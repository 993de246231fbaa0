package passes

import (
	"tameir/internal/analysis"
	"tameir/internal/ir"
)

// LICM hoists loop-invariant computations into the loop preheader.
// Speculatable instructions (plain arithmetic — including
// poison-producing nsw/nuw arithmetic, whose deferred UB is exactly
// what makes the hoist legal, §2.2) always hoist.
//
// Division is the §3.2 battleground: hoisting "1/k" out of a loop
// guarded by "k != 0" is unsound when k can be undef (the check and
// the division may see different values) or poison. The fixed variant
// hoists a division only when the divisor is a provably non-zero,
// non-poison value (§5.6's "up to non-poison" analysis contract); the
// Config.Unsound variant trusts a dominating "k != 0" branch — LLVM's
// historical behaviour, shown to miscompile (PR21412).
type LICM struct{}

// Name implements Pass.
func (LICM) Name() string { return "licm" }

// Run implements Pass.
func (LICM) Run(f *ir.Func, cfg *Config, am *AnalysisManager) bool {
	dt := am.DomTree()
	li := am.LoopInfo()
	snap := newSnapshot()
	defer snap.release()
	changed := false
	for _, l := range li.Loops {
		ph := l.Preheader(f)
		if ph == nil {
			continue
		}
		phTerm := ph.Terminator()
		// Iterate to a fixpoint within the loop: hoisting one
		// instruction may make its users invariant.
		for {
			hoisted := false
			for b := range l.Blocks {
				for _, in := range snap.of(b) {
					if in.Parent() == nil {
						continue
					}
					if !loopInvariantOperands(l, in) {
						continue
					}
					if !hoistable(f, dt, l, in, cfg) {
						continue
					}
					b.Remove(in)
					ph.InsertBefore(in, phTerm)
					hoisted = true
					changed = true
				}
			}
			if !hoisted {
				break
			}
		}
	}
	return changed
}

func loopInvariantOperands(l *analysis.Loop, in *ir.Instr) bool {
	if in.NumArgs() == 0 {
		return false
	}
	for _, a := range in.Args() {
		if !l.IsInvariant(a) {
			return false
		}
	}
	return true
}

func hoistable(f *ir.Func, dt *analysis.DomTree, l *analysis.Loop, in *ir.Instr, cfg *Config) bool {
	switch {
	case in.Op.IsTerminator(), in.Op == ir.OpPhi:
		return false
	case in.Op == ir.OpFreeze:
		// Hoisting freeze out of a loop is sound (it runs once instead
		// of many times with the same operand — all executions saw the
		// same operand value, and making the choice once refines
		// making it repeatedly)... but only when the loop body was
		// guaranteed to execute it. Speculating a freeze that might
		// not run adds no UB (freeze is total), so it is fine.
		return cfg.FreezeAware
	case analysis.IsSpeculatable(in):
		return true
	case in.Op.IsDivRem():
		if analysis.IsSpeculatableWithNonPoisonDivisor(in) {
			return true
		}
		if cfg.Unsound {
			// Historical: trust a dominating non-zero check on the
			// divisor (§3.2) — unsound for undef/poison divisors.
			return divisorCheckedNonZero(f, dt, l, in.Arg(1))
		}
		return false
	}
	return false
}

// divisorCheckedNonZero looks for a conditional branch on
// "icmp ne d, 0" (or eq with swapped edges) whose non-zero edge
// dominates the loop header.
func divisorCheckedNonZero(f *ir.Func, dt *analysis.DomTree, l *analysis.Loop, d ir.Value) bool {
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || !t.IsConditionalBr() {
			continue
		}
		cmp, ok := t.Arg(0).(*ir.Instr)
		if !ok || cmp.Op != ir.OpICmp {
			continue
		}
		var edge *ir.Block
		if cmp.Pred == ir.PredNE && cmp.Arg(0) == d && isZeroConst(cmp.Arg(1)) {
			edge = t.BlockArg(0)
		} else if cmp.Pred == ir.PredEQ && cmp.Arg(0) == d && isZeroConst(cmp.Arg(1)) {
			edge = t.BlockArg(1)
		} else {
			continue
		}
		preds := f.Preds(edge)
		if len(preds) == 1 && preds[0] == b && dt.Dominates(edge, l.Header) {
			return true
		}
	}
	return false
}
