package passes

import "tameir/internal/ir"

// DCE removes trivially dead instructions (unused, side-effect-free)
// and unreachable blocks. Deleting an instruction that might produce
// poison — or even one whose execution might be UB, like an unused
// division — is a refinement, so DCE is sound under every semantics.
type DCE struct{}

// Name implements Pass.
func (DCE) Name() string { return "dce" }

// Run implements Pass.
func (DCE) Run(f *ir.Func, cfg *Config, _ *AnalysisManager) bool {
	changed := removeUnreachableBlocks(f)
	for {
		erased := false
		for _, b := range f.Blocks {
			instrs := b.Instrs()
			for i := len(instrs) - 1; i >= 0; i-- {
				in := instrs[i]
				if in.Parent() == nil {
					continue
				}
				if isTriviallyDead(in) {
					b.Erase(in)
					erased = true
				}
			}
		}
		if !erased {
			break
		}
		changed = true
	}
	return changed
}
