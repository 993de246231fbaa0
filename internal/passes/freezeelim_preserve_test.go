package passes_test

import (
	"testing"

	"tameir/internal/analysis"
	"tameir/internal/ir"
	"tameir/internal/passes"
)

// Freeze-elim upgrades its static preserved-set dynamically: a run
// that only replaced freezes with statically never-poison operands
// (no guard-based deletions, no knownbits-consulting transfers in the
// function) keeps the cached poison facts alive. These tests pin the
// claim in both directions and check it against the -verify-each
// coherence battery, which recomputes the fixpoint and compares.

// freezeElimWithManager runs freeze-elim once against a caller-visible
// analysis manager with the poison facts warmed, returning the manager
// and whether the pass changed f.
func freezeElimWithManager(t *testing.T, f *ir.Func) (*analysis.Manager, bool) {
	t.Helper()
	cfg := passes.DefaultFreezeConfig()
	am := analysis.NewManager(f)
	am.Poison() // warm the cache so preservation is observable
	changed := passes.RunPassWithManager(passes.FreezeElim{}, f, cfg, am)
	return am, changed
}

// A clean deletion — the freeze's operand is itself a freeze, hence
// statically never poison — must keep the poison facts cached, and
// the kept facts must survive CheckInvariants' fresh recomputation.
func TestFreezeElimPreservesPoisonFacts(t *testing.T) {
	f := ir.MustParseFunc(`define i8 @f(i8 %x) {
entry:
  %f1 = freeze i8 %x
  %f2 = freeze i8 %f1
  %a = add i8 %f2, 1
  ret i8 %a
}`)
	am, changed := freezeElimWithManager(t, f)
	if !changed {
		t.Fatalf("freeze-elim deleted nothing:\n%s", f)
	}
	if !am.Cached(analysis.Poison) {
		t.Fatal("clean freeze-elim run evicted the poison facts it proved preserved")
	}
	if err := am.CheckInvariants(); err != nil {
		t.Fatalf("preserved poison facts fail the coherence check: %v\n%s", err, f)
	}

	// The same function through the -verify-each battery: the pass
	// manager checks the dynamic claim right after applying it.
	g := ir.MustParseFunc(`define i8 @f(i8 %x) {
entry:
  %f1 = freeze i8 %x
  %f2 = freeze i8 %f1
  %a = add i8 %f2, 1
  ret i8 %a
}`)
	pm, err := passes.NewPassManager("freeze-elim")
	if err != nil {
		t.Fatal(err)
	}
	cfg := passes.DefaultFreezeConfig()
	cfg.VerifyEach = true
	if !pm.RunFunc(g, cfg) {
		t.Fatalf("freeze-elim deleted nothing under -verify-each:\n%s", g)
	}
}

// A guard-based deletion (NeverPoisonAt) replaces the freeze with an
// operand that is only contextually clean — its static fact is
// may-poison — so the cached table would overclaim. The pass must not
// preserve it.
func TestFreezeElimGuardedDeletionInvalidatesPoison(t *testing.T) {
	f := ir.MustParseFunc(`define i8 @g(i1 %c, i8 %x) {
entry:
  br i1 %c, label %t, label %e
t:
  %fz = freeze i1 %c
  %s = select i1 %fz, i8 1, i8 2
  ret i8 %s
e:
  ret i8 0
}`)
	am, changed := freezeElimWithManager(t, f)
	if !changed {
		t.Fatalf("guarded freeze not deleted:\n%s", f)
	}
	if am.Cached(analysis.Poison) {
		t.Fatal("guard-based deletion must invalidate the poison facts: the operand is only contextually clean")
	}
}

// A knownbits-consulting transfer (shift, add nuw) reads operand
// structure rather than lattice elements, so rerouting uses past a
// freeze can strengthen a fresh fixpoint. Any such instruction in the
// function blocks the claim.
func TestFreezeElimKnownbitsHazardInvalidatesPoison(t *testing.T) {
	for _, src := range []string{
		`define i8 @h(i8 %x) {
entry:
  %f1 = freeze i8 %x
  %f2 = freeze i8 %f1
  %s = shl i8 %f2, 1
  ret i8 %s
}`,
		`define i8 @h(i8 %x) {
entry:
  %f1 = freeze i8 %x
  %f2 = freeze i8 %f1
  %s = add nuw i8 %f2, 1
  ret i8 %s
}`,
	} {
		f := ir.MustParseFunc(src)
		am, changed := freezeElimWithManager(t, f)
		if !changed {
			t.Fatalf("freeze not deleted:\n%s", f)
		}
		if am.Cached(analysis.Poison) {
			t.Fatalf("knownbits-sensitive function must invalidate the poison facts:\n%s", f)
		}
	}
}

// A dynamic claim must be consumed by the pass step that made it —
// never soften a later pass's invalidation.
func TestRunPreservedDoesNotLeak(t *testing.T) {
	f := ir.MustParseFunc(`define i8 @f(i8 %x) {
entry:
  %a = add i8 %x, 1
  ret i8 %a
}`)
	am := analysis.NewManager(f)
	am.PreserveDuringRun(analysis.Poison)
	if got := am.TakeRunPreserved(); got != analysis.Poison {
		t.Fatalf("TakeRunPreserved = %v, want poison", got)
	}
	if got := am.TakeRunPreserved(); got != analysis.None {
		t.Fatalf("second TakeRunPreserved = %v, want none: claims must be cleared on take", got)
	}
}
