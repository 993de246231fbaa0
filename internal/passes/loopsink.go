package passes

import (
	"tameir/internal/analysis"
	"tameir/internal/ir"
)

// LoopSink is the dual of LICM (§5.5): computations in a loop
// preheader whose only uses are inside a rarely-executed loop are sunk
// into the loop body, trading redundant execution for a shorter hot
// path when the loop does not run.
//
// Pitfall 1 of §5.5: a freeze must NOT be sunk — sinking duplicates
// its execution, and each dynamic freeze of a poison value may return
// a different result, so uses across iterations would disagree.
// The fixed variant refuses; Config.Unsound sinks anyway, and the
// refinement checker catches it (TestLoopSinkFreezeUnsound).
type LoopSink struct{}

// Name implements Pass.
func (LoopSink) Name() string { return "loopsink" }

// Run implements Pass.
func (LoopSink) Run(f *ir.Func, cfg *Config, am *AnalysisManager) bool {
	li := am.LoopInfo()
	changed := false
	for _, l := range li.Loops {
		ph := l.Preheader(f)
		if ph == nil {
			continue
		}
		for _, in := range append([]*ir.Instr(nil), ph.Instrs()...) {
			if in.Parent() == nil || in.Op.IsTerminator() {
				continue
			}
			if !sinkable(in, cfg) {
				continue
			}
			// All uses must be in a single block of the loop (we do
			// not build phis for multi-block sinks).
			var dst *ir.Block
			ok := true
			for _, u := range in.Users() {
				if u.Parent() == nil || !l.Blocks[u.Parent()] || u.Op == ir.OpPhi {
					ok = false
					break
				}
				if dst == nil {
					dst = u.Parent()
				} else if dst != u.Parent() {
					ok = false
					break
				}
			}
			if !ok || dst == nil {
				continue
			}
			ph.Remove(in)
			dst.InsertBefore(in, dst.Instrs()[0])
			changed = true
		}
	}
	return changed
}

func sinkable(in *ir.Instr, cfg *Config) bool {
	if in.Op == ir.OpFreeze {
		// Sinking a freeze into the loop re-executes it every
		// iteration: each dynamic execution may pick a different value
		// for a poison input, where the hoisted original picked one
		// value for all iterations. That widens the behaviour set —
		// duplication in time — so it is unsound (§5.5, pitfall 1).
		// Only the Unsound variant does it.
		return cfg.Unsound
	}
	return analysis.IsSpeculatable(in)
}
