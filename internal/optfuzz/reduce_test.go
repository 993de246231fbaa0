package optfuzz

import (
	"reflect"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/passes"
	"tameir/internal/refine"
)

// unsoundO2 is the transform the reducer re-checks against in these
// tests: the full -O2 pipeline with the deliberately unsound fold
// enabled.
func unsoundO2() func(*ir.Func) []string {
	pcfg := passes.DefaultLegacyConfig()
	pcfg.Unsound = true
	pm := passes.O2()
	return func(f *ir.Func) []string {
		_, fired := pm.RunFuncChanged(f, pcfg)
		return fired
	}
}

// findRefuted runs a small exhaustive campaign against the unsound
// pipeline and returns the first finding's source function.
func findRefuted(t *testing.T) *ir.Func {
	t.Helper()
	sem := core.LegacyOptions(core.BranchPoisonNondet)
	pcfg := passes.DefaultLegacyConfig()
	pcfg.Unsound = true
	gen := DefaultConfig(2)
	gen.MaxFuncs = 2000
	st := Campaign{
		Source:      NewExhaustiveSource(gen),
		Refine:      refine.DefaultConfig(sem, sem),
		Pipeline:    passes.O2(),
		PipelineCfg: pcfg,
		Workers:     4,
	}.Run()
	if len(st.Findings) == 0 {
		t.Fatal("unsound pipeline yielded no findings to reduce")
	}
	f, err := ir.ParseFunc(st.Findings[0].Src)
	if err != nil {
		t.Fatalf("finding source does not re-parse: %v", err)
	}
	return f
}

// pad appends dead instructions to f's entry block — reducible fat a
// real finding would carry.
func pad(f *ir.Func, n int) *ir.Func {
	g := ir.CloneFunc(f)
	entry := g.Entry()
	term := entry.Terminator()
	ty := g.RetTy
	for i := 0; i < n; i++ {
		in := ir.NewInstr(ir.OpXor, ty, g.Params[0], ir.ConstInt(ty, uint64(i)&3))
		in.Nam = g.GenName("d")
		entry.InsertBefore(in, term)
	}
	return g
}

// TestReduceFindingShrinksAndPreservesVerdict is the reducer
// invariant: the output is strictly smaller, still refuted by the same
// transform, and reachable in a bounded number of accepted steps.
func TestReduceFindingShrinksAndPreservesVerdict(t *testing.T) {
	sem := core.LegacyOptions(core.BranchPoisonNondet)
	rcfg := refine.DefaultConfig(sem, sem)
	transform := unsoundO2()

	orig := findRefuted(t)
	fat := pad(orig, 4)

	// The padded candidate must itself still be a finding.
	work := ir.CloneFunc(fat)
	transform(work)
	if r := refine.Check(fat, work, rcfg); r.Status != refine.Refuted {
		t.Fatalf("padded candidate not refuted: %v", r)
	}

	rr := ReduceFinding(fat, transform, rcfg, ir.VerifyLegacy, 0)
	if rr.Steps == 0 {
		t.Fatalf("reducer made no progress on a candidate with %d dead instructions", 4)
	}
	if rr.RemovedInstrs < 4 {
		t.Fatalf("reducer removed %d instructions, want at least the 4 dead ones", rr.RemovedInstrs)
	}
	if rr.Result.Status != refine.Refuted {
		t.Fatalf("reduced finding is not refuted: %v", rr.Result)
	}
	red, err := ir.ParseFunc(rr.Src)
	if err != nil {
		t.Fatalf("reduced source does not parse: %v\n%s", err, rr.Src)
	}
	if red.NumInstrs() >= fat.NumInstrs() {
		t.Fatalf("reduced function (%d instrs) not smaller than input (%d)", red.NumInstrs(), fat.NumInstrs())
	}
	// Re-check the reduced pair from scratch: the verdict must
	// reproduce outside the reducer.
	rework := ir.CloneFunc(red)
	transform(rework)
	if r := refine.Check(red, rework, rcfg); r.Status != refine.Refuted {
		t.Fatalf("reduced finding does not reproduce: %v", r)
	}
}

// TestReduceFindingDeterministic: same input, same config, same
// reduction — twice.
func TestReduceFindingDeterministic(t *testing.T) {
	sem := core.LegacyOptions(core.BranchPoisonNondet)
	rcfg := refine.DefaultConfig(sem, sem)
	transform := unsoundO2()
	fat := pad(findRefuted(t), 3)

	a := ReduceFinding(fat, transform, rcfg, ir.VerifyLegacy, 0)
	b := ReduceFinding(fat, transform, rcfg, ir.VerifyLegacy, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reduction not deterministic:\na: %+v\nb: %+v", a, b)
	}
}

// TestReduceRespectsMaxSteps bounds the work per finding.
func TestReduceRespectsMaxSteps(t *testing.T) {
	sem := core.LegacyOptions(core.BranchPoisonNondet)
	rcfg := refine.DefaultConfig(sem, sem)
	transform := unsoundO2()
	fat := pad(findRefuted(t), 6)

	rr := ReduceFinding(fat, transform, rcfg, ir.VerifyLegacy, 2)
	if rr.Steps > 2 {
		t.Fatalf("reducer took %d steps past maxSteps=2", rr.Steps)
	}
}
