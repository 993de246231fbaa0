package passes_test

import (
	"maps"
	"slices"
	"testing"

	"tameir/internal/analysis"
	"tameir/internal/ir"
	"tameir/internal/passes"
	"tameir/internal/refine"
)

// Freeze-elim preserves the CFG, so a step that deleted a freeze keeps
// the predecessor map, dominator tree and loop info cached and drops
// the poison facts, like every changing step. These tests pin that per
// deletion shape and check what the recomputed facts say: a clean
// deletion leaves every surviving fact as it was, a guard-based one
// weakens one, and -verify-each (CheckInvariants) audits both.

// poisonProbe is a pass that changes nothing: it records the poison
// fact the manager serves for every named instruction.
type poisonProbe struct {
	facts *[]map[string]analysis.PoisonLattice
}

func (poisonProbe) Name() string { return "poison-probe" }

func (p poisonProbe) Run(f *ir.Func, _ *passes.Config, am *passes.AnalysisManager) bool {
	pf := am.Poison()
	got := map[string]analysis.PoisonLattice{}
	f.ForEachInstr(func(in *ir.Instr) {
		if in.Name() != "" {
			got[in.Name()] = pf.Fact(in)
		}
	})
	*p.facts = append(*p.facts, got)
	return false
}

// freezeElimStep runs one freeze-elim step on the function in src,
// between probes sharing its analysis manager, under -verify-each. It
// requires the step to leave wantFreezes freezes, the result to refine
// the source and the probes to see the CFG analyses kept and the
// poison facts recomputed, and returns the facts each probe was served.
func freezeElimStep(t *testing.T, src string, wantFreezes int) []map[string]analysis.PoisonLattice {
	t.Helper()
	m := ir.MustParseModule(src)
	f := m.Funcs[0]
	orig := ir.CloneFunc(f)
	var log []string
	var facts []map[string]analysis.PoisonLattice
	pm := &passes.PassManager{Passes: []passes.Pass{
		probe{&log}, poisonProbe{&facts}, passes.FreezeElim{}, probe{&log}, poisonProbe{&facts},
	}}
	cfg := passes.DefaultFreezeConfig()
	cfg.VerifyEach = true
	if !pm.RunOnce(m, cfg) {
		t.Fatalf("freeze-elim deleted nothing:\n%s", f)
	}
	n := 0
	f.ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.OpFreeze {
			n++
		}
	})
	if n != wantFreezes {
		t.Fatalf("%d freezes left, want %d:\n%s", n, wantFreezes, f)
	}
	if r := refine.Check(orig, f, refine.DefaultConfig(cfg.Sem, cfg.Sem)); r.Status != refine.Verified {
		t.Fatalf("refinement %v\n--- source\n%s\n--- transformed\n%s\n%s", r.Status, orig, f, r)
	}
	if want := []string{"preds,domtree,loopinfo,poison", "poison"}; !slices.Equal(log, want) {
		t.Fatalf("probes recomputed %q, want %q: freeze-elim preserves the CFG and changed f", log, want)
	}
	return facts
}

// A clean deletion — the freeze's operand is itself a freeze, hence
// statically never poison — preserves the poison facts: the fixpoint
// recomputed after the step gives every surviving instruction the
// fact it had before.
func TestFreezeElimPreservesPoisonFacts(t *testing.T) {
	facts := freezeElimStep(t, `define i2 @f(i2 %x) {
entry:
  %f1 = freeze i2 %x
  %f2 = freeze i2 %f1
  %a = add i2 %f2, 1
  ret i2 %a
}`, 1)
	before, after := facts[0], facts[1]
	delete(before, "f2")
	if !maps.Equal(before, after) {
		t.Fatalf("clean deletion moved the surviving facts: before %v, after %v", before, after)
	}
	if after["a"] != analysis.NeverPoison {
		t.Fatalf("%%a = %v after the deletion, want never-poison", after["a"])
	}
}

// A guard-based deletion (NeverPoisonAt) replaces the freeze with an
// operand that is only contextually clean — its static fact is
// may-poison — so the cached facts would overclaim: the select they
// called never-poison now reads the raw condition. The recomputed facts
// must say may-poison.
func TestFreezeElimGuardedDeletionInvalidatesPoison(t *testing.T) {
	facts := freezeElimStep(t, `define i2 @g(i1 %c, i2 %x) {
entry:
  br i1 %c, label %t, label %e
t:
  %fz = freeze i1 %c
  %s = select i1 %fz, i2 1, i2 2
  ret i2 %s
e:
  ret i2 0
}`, 0)
	if facts[0]["s"] != analysis.NeverPoison || facts[1]["s"] != analysis.MayPoison {
		t.Fatalf("%%s read %v before and %v after the deletion, want never-poison then may-poison", facts[0]["s"], facts[1]["s"])
	}
}

// A knownbits-consulting transfer (shift, add nuw) reads operand
// structure rather than lattice elements, so rerouting uses past a
// freeze can move its fact. The facts are recomputed all the same, and
// -verify-each's CheckInvariants compares them with a fresh fixpoint.
func TestFreezeElimKnownbitsHazardInvalidatesPoison(t *testing.T) {
	for _, src := range []string{
		`define i2 @h(i2 %x) {
entry:
  %f1 = freeze i2 %x
  %f2 = freeze i2 %f1
  %s = shl i2 %f2, 1
  ret i2 %s
}`,
		`define i2 @h(i2 %x) {
entry:
  %f1 = freeze i2 %x
  %f2 = freeze i2 %f1
  %s = add nuw i2 %f2, 1
  ret i2 %s
}`,
	} {
		freezeElimStep(t, src, 1)
	}
}
