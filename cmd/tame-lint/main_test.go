package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tameir/internal/analysis"
	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/passes"
)

// freezeNames lists f's freezes in block order.
func freezeNames(f *ir.Func) []string {
	var out []string
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			if in.Op == ir.OpFreeze {
				out = append(out, in.Name())
			}
		}
	}
	return out
}

// TestLintFlagsWhatFreezeElimDeletes: on every pass test file, in each
// dialect the file verifies in, the freezes lint flags are exactly the
// ones a lone freeze-elim step deletes, the guarded ones included.
func TestLintFlagsWhatFreezeElimDeletes(t *testing.T) {
	files, err := filepath.Glob("../../internal/passes/testdata/*.ll")
	if err != nil || len(files) == 0 {
		t.Fatalf("no pass test files (%v)", err)
	}
	flaggedTotal, guardedTotal := 0, 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, sem := range []core.Options{core.FreezeOptions(), core.LegacyOptions(core.BranchPoisonNondet)} {
			mod, err := ir.ParseModule(string(src))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if ir.VerifyModule(mod, sem.Mode.VerifyMode()) != nil {
				continue
			}
			cfg := &passes.Config{Sem: sem, FreezeAware: true}
			freezeDialect := sem.Mode == core.Freeze
			for _, f := range mod.Funcs {
				var flagged []string
				for _, r := range redundantFreezes(f, analysis.AnalyzePoison(f), freezeDialect) {
					flagged = append(flagged, r.freeze.Name())
					if r.guarded {
						guardedTotal++
					}
				}
				before := freezeNames(f)
				passes.RunPass(passes.FreezeElim{}, f, cfg)
				after := freezeNames(f)
				var deleted []string
				for _, n := range before {
					if !slices.Contains(after, n) {
						deleted = append(deleted, n)
					}
				}
				if !slices.Equal(flagged, deleted) {
					t.Errorf("%s (%s dialect) @%s: lint flags %v, freeze-elim deletes %v",
						filepath.Base(path), sem.Mode, f.Name(), flagged, deleted)
				}
				flaggedTotal += len(flagged)
			}
		}
	}
	if flaggedTotal == 0 || guardedTotal == 0 {
		t.Errorf("lint flagged %d freezes, %d of them under a guard; the files no longer cover both cases",
			flaggedTotal, guardedTotal)
	}
}
