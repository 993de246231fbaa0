package passes

import "tameir/internal/ir"

// ADCE is aggressive dead-code elimination: instead of deleting
// trivially unused instructions bottom-up (DCE), it marks the live set
// top-down from the roots — side-effecting instructions and
// terminators — and deletes everything unmarked. This removes
// self-sustaining dead phi cycles that DCE cannot (a phi used only by
// the instructions that feed it back).
//
// Control flow is never removed: deleting a dead-but-infinite loop
// would change termination behaviour, which our semantics (which has
// no forward-progress assumption) does not allow.
type ADCE struct{}

// Name implements Pass.
func (ADCE) Name() string { return "adce" }

func init() {
	// Control flow is never removed (see the pass comment), so every
	// block-level analysis survives.
	Register(PassInfo{Name: "adce", New: func() Pass { return ADCE{} }, Preserves: PreservesAll})
}

// Run implements Pass.
func (ADCE) Run(f *ir.Func, cfg *Config, _ *AnalysisManager) bool {
	live := map[*ir.Instr]bool{}
	var work []*ir.Instr
	mark := func(in *ir.Instr) {
		if !live[in] {
			live[in] = true
			work = append(work, in)
		}
	}
	f.ForEachInstr(func(in *ir.Instr) {
		if in.Op.HasSideEffects() || in.Op.IsTerminator() {
			mark(in)
		}
	})
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range in.Args() {
			if def, ok := a.(*ir.Instr); ok {
				mark(def)
			}
		}
	}

	changed := false
	snap := newSnapshot()
	defer snap.release()
	for _, b := range f.Blocks {
		for _, in := range snap.of(b) {
			if in.Parent() == nil || live[in] {
				continue
			}
			// Dead instructions may form cycles (phis); break the
			// def-use edges first, then erase.
			in.ReplaceAllUsesWith(ir.NewPoison(in.Ty))
			b.Erase(in)
			changed = true
		}
	}
	return changed
}
