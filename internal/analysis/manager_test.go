package analysis

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"tameir/internal/ir"
)

func managerFunc(t *testing.T) *ir.Func {
	t.Helper()
	return ir.MustParseFunc(`define i2 @f(i1 %c, i2 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %m
b:
  br label %m
m:
  %p = phi i2 [ %x, %a ], [ 0, %b ]
  ret i2 %p
}`)
}

// recomputed queries every cached analysis in dependency order and
// names the ones m computed rather than served from its cache, read off
// Stats: each query computes at most its own analysis, because the ones
// it depends on were queried just before it.
func recomputed(m *Manager) string {
	var out []string
	for _, a := range []struct {
		name  string
		query func()
	}{
		{"preds", func() { m.Preds() }},
		{"domtree", func() { m.DomTree() }},
		{"loopinfo", func() { m.LoopInfo() }},
		{"poison", func() { m.Poison() }},
	} {
		before := m.Stats().Computes
		a.query()
		if m.Stats().Computes != before {
			out = append(out, a.name)
		}
	}
	return strings.Join(out, ",")
}

func TestManagerLazyAndCached(t *testing.T) {
	m := NewManager(managerFunc(t))
	if st := m.Stats(); st != (Stats{}) {
		t.Fatalf("fresh manager has stats %+v", st)
	}
	// LoopInfo pulls in its whole dependency chain.
	if m.LoopInfo() == nil {
		t.Fatal("nil loop info")
	}
	st := m.Stats()
	if st.Computes != 3 {
		t.Errorf("computes = %d, want 3 (preds, domtree, loopinfo)", st.Computes)
	}
	if got := recomputed(m); got != "poison" {
		t.Errorf("after LoopInfo, recomputed %q, want only poison: LoopInfo should cache the CFG and domtree too", got)
	}
	// Re-querying hits the cache and returns the identical objects.
	dt := m.DomTree()
	if m.DomTree() != dt {
		t.Error("DomTree recomputed despite cache")
	}
	if got := m.Stats(); got.Computes != 4 || got.Hits == 0 {
		t.Errorf("stats after re-query = %+v", got)
	}
}

// TestManagerInvalidation: the two invalidations a pass step makes. A
// change by a pass that preserves the CFG drops only the poison facts;
// a change by one that does not drops everything, as InvalidateAll does.
func TestManagerInvalidation(t *testing.T) {
	m := NewManager(managerFunc(t))
	if got := recomputed(m); got != "preds,domtree,loopinfo,poison" {
		t.Fatalf("first queries recomputed %q", got)
	}
	if got := recomputed(m); got != "" {
		t.Errorf("with nothing invalidated, recomputed %q", got)
	}
	m.Invalidate(true)
	if got := recomputed(m); got != "poison" {
		t.Errorf("Invalidate(true) then recomputed %q, want only poison", got)
	}
	m.Invalidate(false)
	if got := recomputed(m); got != "preds,domtree,loopinfo,poison" {
		t.Errorf("Invalidate(false) then recomputed %q, want all four", got)
	}
	m.InvalidateAll()
	if got := recomputed(m); got != "preds,domtree,loopinfo,poison" {
		t.Errorf("InvalidateAll then recomputed %q, want all four", got)
	}
}

func TestManagerMatchesDirectComputation(t *testing.T) {
	f := managerFunc(t)
	m := NewManager(f)
	direct := NewDomTree(f)
	cached := m.DomTree()
	for _, b := range f.Blocks {
		if direct.IDom(b) != cached.IDom(b) {
			t.Errorf("idom(%s) differs: direct %v, manager %v",
				b.Name(), direct.IDom(b), cached.IDom(b))
		}
	}
}

// TestManagerResetReusesStorage: one manager, moved across functions
// of different shapes with Reset and invalidated between queries,
// serves exactly what fresh computations give (CheckInvariants
// recomputes every cached analysis from scratch; the children lists
// and loop bodies are compared here too), and once its storage has
// grown to a function it recomputes that function's analyses without
// allocating.
func TestManagerResetReusesStorage(t *testing.T) {
	deadEdgeSrc := `define i32 @f(i1 %c) {
entry:
  br label %loop
loop:
  br i1 %c, label %loop, label %exit
dead:
  br label %loop
exit:
  ret i32 0
}`
	var fns []*ir.Func
	for _, src := range []string{nestedLoopSrc, diamondSrc, deadEdgeSrc, loopSrc} {
		fns = append(fns, ir.MustParseFunc(src))
	}
	fns = append(fns, managerFunc(t))
	same := func(f *ir.Func, m *Manager) {
		t.Helper()
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		dt, li := NewDomTree(f), FindLoops(f, NewDomTree(f))
		for _, b := range f.Blocks {
			if !slices.Equal(m.DomTree().Children(b), dt.Children(b)) {
				t.Fatalf("@%s: children of %%%s %v, fresh %v", f.Name(), b.Name(), m.DomTree().Children(b), dt.Children(b))
			}
		}
		got := m.LoopInfo().Loops
		if len(got) != len(li.Loops) {
			t.Fatalf("@%s: %d loops, fresh %d", f.Name(), len(got), len(li.Loops))
		}
		for i, l := range got {
			fl := li.Loops[i]
			if l.Header != fl.Header || !maps.Equal(l.Blocks, fl.Blocks) || !slices.Equal(l.Latches, fl.Latches) ||
				loopHeader(l.Parent) != loopHeader(fl.Parent) {
				t.Fatalf("@%s: loop %d differs from a fresh computation", f.Name(), i)
			}
		}
	}
	m := NewManager(nil)
	for round := 0; round < 2; round++ {
		for _, f := range fns {
			m.Reset(f)
			same(f, m)
			m.Invalidate(true)
			same(f, m)
			m.InvalidateAll() // recompute everything into the kept storage
			same(f, m)
		}
		slices.Reverse(fns)
	}
	m.Reset(nil)
	if m.Func() != nil || m.preds != nil || m.Stats() != (Stats{}) {
		t.Fatal("Reset(nil) left the manager serving a function")
	}

	f := ir.MustParseFunc(nestedLoopSrc)
	m.Reset(f)
	m.LoopInfo()
	if n := testing.AllocsPerRun(100, func() {
		m.Reset(f)
		m.LoopInfo()
	}); n != 0 {
		t.Errorf("recomputing the analyses of one function allocates %.0f times, want 0", n)
	}

	// Storage grown for a function of more than keptBlocks blocks is
	// dropped at the next Reset, not kept for the functions after it.
	var big strings.Builder
	big.WriteString("define void @big() {\nentry:\n  br label %b0\n")
	for i := 0; i <= keptBlocks; i++ {
		fmt.Fprintf(&big, "b%d:\n  br label %%b%d\n", i, i+1)
	}
	fmt.Fprintf(&big, "b%d:\n  ret void\n}", keptBlocks+1)
	m.Reset(ir.MustParseFunc(big.String()))
	same(m.Func(), m)
	m.Reset(f)
	if m.domStore.idom != nil || m.predStore.m != nil || m.loopStore.store != nil {
		t.Error("Reset kept the storage of a function larger than keptBlocks")
	}
	same(f, m)
}
