package analysis

import (
	"testing"

	"tameir/internal/ir"
)

func instByName(t *testing.T, f *ir.Func, name string) *ir.Instr {
	t.Helper()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			if in.Name() == name {
				return in
			}
		}
	}
	t.Fatalf("no instruction %%%s", name)
	return nil
}

func TestPoisonStraightLine(t *testing.T) {
	f := ir.MustParseFunc(`define i8 @f(i8 %p) {
entry:
  %fz = freeze i8 %p
  %c = add i8 1, 2
  %n = add nsw i8 %fz, 1
  %plain = add i8 %fz, %fz
  %useP = add i8 %p, 1
  %sh = shl i8 %fz, 9
  %shc = shl i8 %fz, 2
  ret i8 %plain
}`)
	pf := AnalyzePoison(f)
	want := map[string]PoisonLattice{
		"fz":    NeverPoison,
		"c":     NeverPoison,
		"n":     MayPoison, // nsw can overflow
		"plain": NeverPoison,
		"useP":  MayPoison, // parameter operand
		"sh":    MayPoison, // over-shift
		"shc":   NeverPoison,
	}
	for name, w := range want {
		if got := pf.Fact(instByName(t, f, name)); got != w {
			t.Errorf("Fact(%%%s) = %v, want %v", name, got, w)
		}
	}
	if pf.NeverPoison(f.Params[0]) {
		t.Error("parameters may be poison")
	}
	if pf.Queries() == 0 {
		t.Error("query counter did not advance")
	}
}

func TestPoisonKnownBitsIntegration(t *testing.T) {
	// The flow-sensitive analysis goes beyond the local query in two
	// knownbits-backed cases: a variable shift amount whose known-zero
	// bits bound it under the width, and an add nuw whose operands'
	// maxima cannot overflow.
	f := ir.MustParseFunc(`define i8 @f(i8 %a, i8 %b) {
entry:
  %fa = freeze i8 %a
  %fb = freeze i8 %b
  %amt = and i8 %fb, 3
  %sh = shl i8 %fa, %amt
  %la = and i8 %fa, 7
  %lb = and i8 %fb, 7
  %sum = add nuw i8 %la, %lb
  %bad = add nuw i8 %fa, %fb
  ret i8 %sum
}`)
	pf := AnalyzePoison(f)
	if got := pf.Fact(instByName(t, f, "sh")); got != NeverPoison {
		t.Errorf("shl by (and x, 3) on i8: Fact = %v, want never-poison (amount provably < 8)", got)
	}
	if got := pf.Fact(instByName(t, f, "sum")); got != NeverPoison {
		t.Errorf("add nuw of two 3-bit values: Fact = %v, want never-poison (7+7 cannot wrap i8)", got)
	}
	if got := pf.Fact(instByName(t, f, "bad")); got != MayPoison {
		t.Errorf("add nuw of unbounded values: Fact = %v, want may-poison", got)
	}
}

func TestPoisonPhiMerge(t *testing.T) {
	f := ir.MustParseFunc(`define i8 @f(i1 %c, i8 %p) {
entry:
  br i1 %c, label %t, label %e
t:
  %ft = freeze i8 %p
  br label %m
e:
  br label %m
m:
  %clean = phi i8 [ %ft, %t ], [ 7, %e ]
  %dirty = phi i8 [ %ft, %t ], [ %p, %e ]
  %use = add i8 %clean, 1
  ret i8 %use
}`)
	pf := AnalyzePoison(f)
	if got := pf.Fact(instByName(t, f, "clean")); got != NeverPoison {
		t.Errorf("phi of freeze and constant: Fact = %v, want never-poison", got)
	}
	if got := pf.Fact(instByName(t, f, "dirty")); got != MayPoison {
		t.Errorf("phi with a raw parameter incoming: Fact = %v, want may-poison", got)
	}
	if got := pf.Fact(instByName(t, f, "use")); got != NeverPoison {
		t.Errorf("add over the clean phi: Fact = %v, want never-poison (this is what the local query cannot see)", got)
	}
}

func TestPoisonLoopFixpoint(t *testing.T) {
	// Loop-carried induction: %i starts clean and the backedge feeds an
	// attribute-free add of itself, so the optimistic fixpoint keeps it
	// NeverPoison. The nsw twin must converge to MayPoison — the poison
	// raised on the backedge must propagate around the cycle.
	f := ir.MustParseFunc(`define i8 @f(i8 %n) {
entry:
  %fn = freeze i8 %n
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %body ]
  %j = phi i8 [ 0, %entry ], [ %j1, %body ]
  %c = icmp ult i8 %i, %fn
  br i1 %c, label %body, label %exit
body:
  %i1 = add i8 %i, 1
  %j1 = add nsw i8 %j, 1
  br label %head
exit:
  ret i8 %i
}`)
	pf := AnalyzePoison(f)
	if got := pf.Fact(instByName(t, f, "i")); got != NeverPoison {
		t.Errorf("clean induction phi: Fact = %v, want never-poison", got)
	}
	if got := pf.Fact(instByName(t, f, "i1")); got != NeverPoison {
		t.Errorf("clean induction step: Fact = %v, want never-poison", got)
	}
	if got := pf.Fact(instByName(t, f, "j")); got != MayPoison {
		t.Errorf("nsw induction phi: Fact = %v, want may-poison (backedge poison must reach the header)", got)
	}
	if pf.Rounds() < 2 {
		t.Errorf("fixpoint converged in %d rounds, want >= 2", pf.Rounds())
	}
}

func TestPoisonUnreachableAndSelfRef(t *testing.T) {
	f := ir.MustParseFunc(`define i8 @f(i8 %p) {
entry:
  %x = add i8 1, 2
  ret i8 %x
dead:
  %y = add i8 %p, 1
  br label %dead2
dead2:
  br label %dead
}`)
	pf := AnalyzePoison(f)
	if got := pf.Fact(instByName(t, f, "x")); got != NeverPoison {
		t.Errorf("reachable const add: Fact = %v", got)
	}
	// Unreachable instructions are outside the fixpoint: conservative.
	if got := pf.Fact(instByName(t, f, "y")); got != MayPoison {
		t.Errorf("unreachable instruction: Fact = %v, want may-poison", got)
	}

	// A self-referential phi (all non-self incomings clean) is clean:
	// induction over iterations, the same argument as the loop case.
	g := ir.MustParseFunc(`define i8 @g(i1 %c) {
entry:
  br label %head
head:
  %i = phi i8 [ 3, %entry ], [ %i, %latch ]
  br i1 %c, label %latch, label %exit
latch:
  br label %head
exit:
  ret i8 %i
}`)
	pg := AnalyzePoison(g)
	if got := pg.Fact(instByName(t, g, "i")); got != NeverPoison {
		t.Errorf("self-referential phi with clean seed: Fact = %v, want never-poison", got)
	}
}

func TestPoisonEdgeRefinement(t *testing.T) {
	// Freeze-dialect branch refinement: every execution reaching %t
	// already branched on %c = icmp(%p, 0) without UB, so %p cannot be
	// poison there even though it globally may be.
	f := ir.MustParseFunc(`define i8 @f(i8 %p) {
entry:
  %c = icmp eq i8 %p, 0
  br i1 %c, label %t, label %e
t:
  %use = add i8 %p, 1
  br label %e
e:
  ret i8 0
}`)
	pf := AnalyzePoison(f)
	dt := NewDomTree(f)
	var tBlk, eBlk *ir.Block
	for _, b := range f.Blocks {
		switch b.Name() {
		case "t":
			tBlk = b
		case "e":
			eBlk = b
		}
	}
	p := f.Params[0]
	if pf.NeverPoison(p) {
		t.Fatal("parameter must not be globally never-poison")
	}
	if !pf.NeverPoisonAt(p, tBlk, dt) {
		t.Error("icmp operand not refined under its own guard block")
	}
	cond := instByName(t, f, "c")
	if !pf.NeverPoisonAt(cond, tBlk, dt) {
		t.Error("branch condition not refined under its own guard block")
	}
	// %e is reachable without executing... no: both paths branch in
	// entry, which dominates %e, so the refinement holds there too.
	if !pf.NeverPoisonAt(p, eBlk, dt) {
		t.Error("refinement must hold in the merge block dominated by the guard")
	}
}

func TestPoisonManagerIntegration(t *testing.T) {
	f := ir.MustParseFunc(`define i8 @f(i8 %p) {
entry:
  %fz = freeze i8 %p
  ret i8 %fz
}`)
	m := NewManager(f)
	pf := m.Poison()
	if !pf.NeverPoison(instByName(t, f, "fz")) {
		t.Fatal("freeze must be never-poison")
	}
	if m.Poison() != pf {
		t.Error("second query recomputed instead of hitting the cache")
	}
	st := m.Stats()
	if st.PoisonQueries == 0 {
		t.Error("manager stats did not count poison queries")
	}
	// A change by a pass that preserves the CFG still drops the poison
	// facts: they describe every instruction, not just the blocks.
	m.DomTree()
	m.Invalidate(true)
	if got := recomputed(m); got != "loopinfo,poison" {
		t.Errorf("after Invalidate(true), recomputed %q, want the poison facts (and the never-queried loop info) only", got)
	}
}

func TestCheckInvariantsCatchesStaleness(t *testing.T) {
	f := ir.MustParseFunc(`define i8 @f(i8 %p) {
entry:
  %x = add i8 1, 2
  ret i8 %x
}`)
	m := NewManager(f)
	m.Preds()
	m.DomTree()
	m.LoopInfo()
	m.Poison()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("clean caches flagged: %v", err)
	}
	// Mutate the IR behind the manager's back, as a pass that reported
	// no change would: the add becomes nsw, so its cached NeverPoison
	// fact is now stale.
	instByName(t, f, "x").Attrs |= ir.NSW
	err := m.CheckInvariants()
	if err == nil {
		t.Fatal("stale poison facts not detected")
	}
	// After proper invalidation the fresh facts agree again.
	m.Invalidate(false)
	m.Poison()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("recomputed facts flagged: %v", err)
	}
}
