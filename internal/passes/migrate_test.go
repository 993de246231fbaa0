package passes_test

import (
	"math/rand"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
	"tameir/internal/passes"
	"tameir/internal/refine"
)

// The §10.1 migration: undef → freeze(poison). The migrated function
// must be valid in the Freeze dialect and must refine the legacy
// original under a cross-semantics check (source interpreted with
// undef, target with the proposed semantics).
//
// The paper stages the migration as (1) document branch on
// undef/poison as UB, (2) fix loop unswitching, (3) then replace undef
// — so the cross-check's source semantics is legacy WITH
// branch-on-poison-as-UB already adopted. (Against the nondet-branch
// legacy semantics no undef migration could verify: a program that
// branches on poison is UB on one side and a coin flip on the other,
// independent of undef.)
func TestMigrateUndefBasics(t *testing.T) {
	src := `define i2 @f(i2 %x) {
entry:
  %a = add i2 %x, undef
  %b = xor i2 %a, undef
  ret i2 %b
}`
	orig := ir.MustParseFunc(src)
	work := ir.CloneFunc(orig)
	cfg := &passes.Config{Sem: core.LegacyOptions(core.BranchPoisonIsUB)}
	if !passes.RunPass(passes.MigrateUndef{}, work, cfg) {
		t.Fatal("migration did nothing")
	}
	if err := ir.Verify(work, ir.VerifyFreeze); err != nil {
		t.Fatalf("migrated function not valid in the freeze dialect: %v\n%s", err, work)
	}
	if countFreezes(work, ir.OpFreeze) != 2 {
		t.Errorf("each undef use gets its own freeze:\n%s", work)
	}
	rcfg := refine.DefaultConfig(core.LegacyOptions(core.BranchPoisonIsUB), core.FreezeOptions())
	r := refine.Check(orig, work, rcfg)
	if r.Status != refine.Verified {
		t.Errorf("migration should refine across semantics: %s\n%s", r, work)
	}
}

func TestMigrateUndefPhi(t *testing.T) {
	// Figure 2's shape: the phi's undef incoming moves to the edge.
	src := `define i2 @f(i1 %c, i2 %v) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %m
b:
  br label %m
m:
  %x = phi i2 [ %v, %a ], [ undef, %b ]
  ret i2 %x
}`
	orig := ir.MustParseFunc(src)
	work := ir.CloneFunc(orig)
	cfg := &passes.Config{Sem: core.LegacyOptions(core.BranchPoisonIsUB), VerifyEach: true}
	passes.RunPass(passes.MigrateUndef{}, work, cfg)
	if err := ir.Verify(work, ir.VerifyFreeze); err != nil {
		t.Fatalf("invalid after migration: %v\n%s", err, work)
	}
	// The freeze must live in block b (the incoming edge).
	bb := work.BlockByName("b")
	if len(bb.Instrs()) != 2 || bb.Instrs()[0].Op != ir.OpFreeze {
		t.Errorf("freeze not placed on the incoming edge:\n%s", work)
	}
	rcfg := refine.DefaultConfig(core.LegacyOptions(core.BranchPoisonIsUB), core.FreezeOptions())
	if r := refine.Check(orig, work, rcfg); r.Status != refine.Verified {
		t.Errorf("phi migration should verify: %s", r)
	}
}

// Migration over a generated corpus: every legacy function with undef
// migrates to a freeze-dialect function that refines it.
func TestMigrateUndefCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus migration is slow")
	}
	legacy := core.LegacyOptions(core.BranchPoisonIsUB)
	rcfg := refine.DefaultConfig(legacy, core.FreezeOptions())
	pcfg := &passes.Config{Sem: legacy, VerifyEach: false}
	gen := optfuzz.DefaultConfig(2)
	gen.MaxFuncs = 800
	checked := 0
	optfuzz.Exhaustive(gen, func(f *ir.Func) bool {
		work := ir.CloneFunc(f)
		passes.RunPass(passes.MigrateUndef{}, work, pcfg)
		if err := ir.Verify(work, ir.VerifyFreeze); err != nil {
			t.Fatalf("invalid after migration: %v\n%s", err, work)
		}
		if r := refine.Check(f, work, rcfg); r.Status == refine.Refuted {
			t.Fatalf("migration refuted:\n%s\n→\n%s\n%s", f, work, r)
		}
		checked++
		return true
	})
	if checked == 0 {
		t.Fatal("nothing checked")
	}
	// Random CFG functions too (phis, branches).
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 150; i++ {
		f := optfuzz.Random(rng, optfuzz.DefaultRandomConfig())
		work := ir.CloneFunc(f)
		passes.RunPass(passes.MigrateUndef{}, work, pcfg)
		if err := ir.Verify(work, ir.VerifyFreeze); err != nil {
			t.Fatalf("invalid after migration: %v\n%s", err, work)
		}
		if r := refine.Check(f, work, rcfg); r.Status == refine.Refuted {
			t.Fatalf("migration refuted on CFG function:\n%s\n→\n%s\n%s", f, work, r)
		}
	}
}

func countFreezes(f *ir.Func, op ir.Op) int {
	n := 0
	f.ForEachInstr(func(in *ir.Instr) {
		if in.Op == op {
			n++
		}
	})
	return n
}
