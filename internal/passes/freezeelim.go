package passes

import (
	"tameir/internal/analysis"
	"tameir/internal/core"
	"tameir/internal/ir"
)

// FreezeElim deletes freeze instructions whose operand the
// flow-sensitive poison analysis proves never poison. This is the
// cleanup half of the paper's deployment story (§5, §7): the §10.1
// migration and the freeze-emitting transformations (loop unswitch,
// GVN) spray freezes defensively, and freeze is only cheap if the
// compiler can prove most of them redundant and delete them.
//
// A freeze of a never-poison (and never-undef) value is the identity:
// freeze picks an arbitrary concrete value only when its operand
// carries deferred UB, so on a clean operand source and target agree on
// every execution and the rewrite is a trivial refinement. The
// dominating-branch refinement (NeverPoisonAt) additionally removes
// freezes guarded by a conditional branch on the same value — valid
// only under the freeze dialect, where branch-on-poison is immediate
// UB, so the pass gates it on cfg.Sem.Mode.
type FreezeElim struct{}

// Name implements Pass.
func (FreezeElim) Name() string { return "freeze-elim" }

// Run implements Pass.
func (FreezeElim) Run(f *ir.Func, cfg *Config, am *AnalysisManager) bool {
	if !cfg.FreezeAware {
		// Freeze-blind pipelines (the historical baseline) must not
		// touch freezes at all.
		return false
	}
	// Collect first: erasing while iterating would skip instructions.
	// Skipping the analysis entirely when there is nothing to delete
	// keeps the pass free on freeze-free functions (most of the §6
	// campaign space).
	var freezes []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			if in.Op == ir.OpFreeze {
				freezes = append(freezes, in)
			}
		}
	}
	if len(freezes) == 0 {
		return false
	}
	facts := am.Poison()
	freezeDialect := cfg.Sem.Mode == core.Freeze
	var dt *analysis.DomTree
	domTree := func() *analysis.DomTree {
		if dt == nil {
			dt = am.DomTree()
		}
		return dt
	}
	changed := false
	for _, in := range freezes {
		if redundant, _ := RedundantFreeze(in, facts, freezeDialect, domTree); redundant {
			replaceAndErase(in, in.Arg(0))
			changed = true
		}
	}
	return changed
}

// RedundantFreeze is freeze-elim's rule, the one tame-lint reports
// with: the freeze in is redundant when facts prove its operand never
// poison, or, in the freeze dialect only, never poison under a
// dominating branch guard (guarded reports that case). domTree is
// called only for the guard case, so a caller with no guarded freeze
// never builds the dominator tree.
func RedundantFreeze(in *ir.Instr, facts *analysis.PoisonFacts, freezeDialect bool, domTree func() *analysis.DomTree) (redundant, guarded bool) {
	op := in.Arg(0)
	if facts.NeverPoison(op) {
		return true, false
	}
	if freezeDialect && facts.NeverPoisonAt(op, in.Parent(), domTree()) {
		return true, true
	}
	return false, false
}
