package optfuzz

import (
	"math/rand"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/passes"
	"tameir/internal/refine"
)

func TestExhaustiveOneInstr(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Opcodes = []ir.Op{ir.OpAdd, ir.OpUDiv}
	seen := map[string]bool{}
	n, truncated := Exhaustive(cfg, func(f *ir.Func) bool {
		if err := ir.Verify(f, ir.VerifyLegacy); err != nil {
			t.Fatalf("generated invalid IR: %v\n%s", err, f)
		}
		s := f.String()
		if seen[s] {
			t.Fatalf("duplicate function generated:\n%s", s)
		}
		seen[s] = true
		return true
	})
	if truncated {
		t.Error("unexpected truncation")
	}
	// 2 opcodes × 7 operand choices² (2 params + 4 consts + undef).
	want := 2 * 7 * 7
	if n != want {
		t.Errorf("generated %d functions, want %d", n, want)
	}
}

func TestExhaustiveRespectsMaxFuncs(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MaxFuncs = 100
	n, truncated := Exhaustive(cfg, func(*ir.Func) bool { return true })
	if n != 100 || !truncated {
		t.Errorf("n=%d truncated=%v, want 100/true", n, truncated)
	}
}

func TestExhaustiveAllValid(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Opcodes = []ir.Op{ir.OpAdd, ir.OpICmp, ir.OpSelect, ir.OpFreeze}
	cfg.MaxFuncs = 5000
	n, _ := Exhaustive(cfg, func(f *ir.Func) bool {
		if err := ir.Verify(f, ir.VerifyLegacy); err != nil {
			t.Fatalf("invalid: %v\n%s", err, f)
		}
		return true
	})
	if n == 0 {
		t.Fatal("nothing generated")
	}
}

func TestRandomGeneratesValidFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		f := Random(rng, DefaultRandomConfig())
		if err := ir.Verify(f, ir.VerifyLegacy); err != nil {
			t.Fatalf("iteration %d: invalid IR: %v\n%s", i, err, f)
		}
	}
}

// The Section 6 experiment in miniature: exhaustively generate
// functions, run the fixed pipeline, and validate every transformation
// with the refinement checker. Zero refutations expected.
func TestValidateFixedPassesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive validation is slow")
	}
	cfg := DefaultConfig(2)
	cfg.Opcodes = []ir.Op{ir.OpAdd, ir.OpMul, ir.OpUDiv, ir.OpICmp, ir.OpSelect}
	cfg.MaxFuncs = 1500
	pcfg := passes.DefaultFreezeConfig()
	rcfg := refine.DefaultConfig(pcfg.Sem, pcfg.Sem)
	// Undef is not part of the freeze dialect.
	cfg.AllowUndef = false
	checked, refuted := 0, 0
	Exhaustive(cfg, func(f *ir.Func) bool {
		work := ir.CloneFunc(f)
		for _, p := range []passes.Pass{passes.InstSimplify{}, passes.InstCombine{}, passes.GVN{}, passes.SCCP{}, passes.DCE{}} {
			passes.RunPass(p, work, pcfg)
		}
		r := refine.Check(f, work, rcfg)
		checked++
		if r.Status == refine.Refuted {
			refuted++
			t.Errorf("fixed pipeline refuted on:\n%s\n→\n%s\n%s", f, work, r)
			return refuted < 3
		}
		return true
	})
	if checked == 0 {
		t.Fatal("nothing checked")
	}
	t.Logf("validated %d functions, %d refuted", checked, refuted)
}

// Random-CFG validation of the fixed O2 pipeline under legacy
// semantics (undef present): the fixed passes must never be refuted.
func TestValidateFixedO2Random(t *testing.T) {
	if testing.Short() {
		t.Skip("random validation is slow")
	}
	rng := rand.New(rand.NewSource(42))
	legacy := core.LegacyOptions(core.BranchPoisonNondet)
	pcfg := &passes.Config{Sem: legacy, VerifyEach: true}
	rcfg := refine.DefaultConfig(legacy, legacy)
	for i := 0; i < 300; i++ {
		f := Random(rng, DefaultRandomConfig())
		work := ir.CloneFunc(f)
		passes.O2().RunFunc(work, pcfg)
		r := refine.Check(f, work, rcfg)
		if r.Status == refine.Refuted {
			t.Fatalf("iteration %d: fixed O2 refuted:\n%s\n→\n%s\n%s", i, f, work, r)
		}
	}
}

// The historical (unsound) pipeline must be caught by the validator on
// at least one generated function — the automation that found the
// paper's bugs.
func TestValidatorCatchesUnsoundPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("validation is slow")
	}
	legacy := core.LegacyOptions(core.BranchPoisonNondet)
	pcfg := &passes.Config{Sem: legacy, Unsound: true}
	rcfg := refine.DefaultConfig(legacy, legacy)
	cfg := DefaultConfig(1)
	cfg.Opcodes = []ir.Op{ir.OpMul}
	found := false
	Exhaustive(cfg, func(f *ir.Func) bool {
		work := ir.CloneFunc(f)
		passes.RunPass(passes.InstCombine{}, work, pcfg)
		r := refine.Check(f, work, rcfg)
		if r.Status == refine.Refuted {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Error("validator failed to catch the unsound mul→add rewrite")
	}
}
