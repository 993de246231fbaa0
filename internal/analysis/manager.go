package analysis

import (
	"fmt"

	"tameir/internal/ir"
)

// Stats counts manager activity: how many analyses were computed from
// scratch and how many queries were served from the cache. The
// difference is exactly what the pass manager's caching saves over the
// historical recompute-per-pass behaviour.
type Stats struct {
	Computes uint64
	Hits     uint64
	// PoisonQueries counts Fact/NeverPoison/NeverPoisonAt queries
	// answered by manager-owned poison facts (the analysis is only
	// worth its fixpoint if consumers actually query it).
	PoisonQueries uint64
}

// Add accumulates o into s (for merging per-shard managers).
func (s *Stats) Add(o Stats) {
	s.Computes += o.Computes
	s.Hits += o.Hits
	s.PoisonQueries += o.PoisonQueries
}

// Manager caches the function-level analyses (predecessor map,
// dominator tree, loop info) for one function and serves them to
// passes. Analyses are computed lazily on first query and retained
// until Invalidate evicts them; the caller (normally the pass manager)
// is responsible for invalidating after the IR changes, using the one
// bit each pass declares: whether it preserves the CFG.
//
// The predecessor map, dominator tree and loop info are computed into
// storage the manager keeps: evicting one keeps its maps and slices
// for the next computation, and so does moving the manager to another
// function with Reset while the storage is small (keptBlocks), so a
// manager that serves small function after small function (the pass
// manager pools them) stops allocating once its working set peaks. An
// analysis a query returns is therefore valid until the manager next
// evicts it — Invalidate, InvalidateAll or Reset — and must not be
// used after that: its contents are recomputed in place. Poison facts
// are allocated per computation and stay valid as long as the IR they
// describe is unchanged.
//
// A Manager is not safe for concurrent use; the parallel campaign
// gives every worker its own manager, like every other piece of
// per-shard state.
type Manager struct {
	fn     *ir.Func
	preds  map[*ir.Block][]*ir.Block
	dt     *DomTree
	li     *LoopInfo
	poison *PoisonFacts
	stats  Stats

	// The storage preds, dt and li point into while they are cached,
	// and the most blocks it has been computed over.
	predStore predStore
	domStore  DomTree
	loopStore LoopInfo
	peak      int
}

// keptBlocks bounds the functions whose analysis storage a Manager
// keeps across Reset. Up to eight blocks each of its maps fits in one
// eight-entry bucket; a larger function's storage is grown tables in
// larger size classes, and kept alive from function to function in
// pooled managers it held allocator spans the collector could
// otherwise reuse: keeping it cost the minc-suite benchmark workload
// about 2% of its peak RSS (DESIGN.md, "Pass manager and cached
// analyses").
const keptBlocks = 8

// NewManager returns an empty manager for f.
func NewManager(f *ir.Func) *Manager { return &Manager{fn: f} }

// Reset empties the manager and points it at f: nothing is cached,
// the Stats restart at zero, and every reference to the previous
// function is dropped (f may be nil, for a manager waiting in a pool).
// The storage analyses are computed into is kept unless it has served
// a function of more than keptBlocks blocks.
func (m *Manager) Reset(f *ir.Func) {
	m.fn = f
	m.preds, m.dt, m.li, m.poison = nil, nil, nil, nil
	m.stats = Stats{}
	if m.peak > keptBlocks {
		m.predStore, m.domStore, m.loopStore, m.peak = predStore{}, DomTree{}, LoopInfo{}, 0
		return
	}
	m.predStore.reset()
	m.domStore.reset()
	m.loopStore.reset()
}

// Func returns the function the manager serves.
func (m *Manager) Func() *ir.Func { return m.fn }

// Preds returns the cached predecessor map, computing it on first use.
func (m *Manager) Preds() map[*ir.Block][]*ir.Block {
	if m.preds == nil {
		m.stats.Computes++
		m.preds = m.predStore.compute(m.fn)
		// The tree and the loops are computed over the blocks of a
		// cached map, so this is the most blocks any storage saw.
		m.peak = max(m.peak, len(m.fn.Blocks))
	} else {
		m.stats.Hits++
	}
	return m.preds
}

// DomTree returns the cached dominator tree, computing it (and the
// predecessor map it is built from) on first use.
func (m *Manager) DomTree() *DomTree {
	if m.dt == nil {
		preds := m.Preds()
		m.stats.Computes++
		m.domStore.compute(m.fn, preds)
		m.dt = &m.domStore
	} else {
		m.stats.Hits++
	}
	return m.dt
}

// LoopInfo returns the cached natural-loop forest, computing it (and
// the dominator tree it depends on) on first use.
func (m *Manager) LoopInfo() *LoopInfo {
	if m.li == nil {
		dt := m.DomTree()
		m.stats.Computes++
		// A cached dominator tree implies a cached predecessor map
		// (Invalidate drops the tree with the map).
		m.loopStore.compute(m.fn, dt, m.preds)
		m.li = &m.loopStore
	} else {
		m.stats.Hits++
	}
	return m.li
}

// Poison returns the cached flow-sensitive poison facts, running the
// dataflow to fixpoint on first use. Query counts are accumulated into
// the manager's Stats so eviction cannot lose them.
func (m *Manager) Poison() *PoisonFacts {
	if m.poison == nil {
		m.stats.Computes++
		m.poison = AnalyzePoison(m.fn)
		m.poison.SetQueryCounter(&m.stats.PoisonQueries)
	} else {
		m.stats.Hits++
	}
	return m.poison
}

// Invalidate drops what a pass step that changed the function can
// have made stale. The poison facts always go: they describe every
// instruction, and any change can move them. When the pass does not
// preserve the CFG, the predecessor map, dominator tree and loop info
// go too; a pass that preserves it adds, removes or rewires no block or
// edge, so those three still describe the function.
func (m *Manager) Invalidate(preservesCFG bool) {
	m.poison = nil
	if !preservesCFG {
		m.preds, m.dt, m.li = nil, nil, nil
	}
}

// InvalidateAll evicts everything. Passes that mutate control flow
// mid-run (loop unswitching between fixpoint rounds) call this so
// their own later queries recompute.
func (m *Manager) InvalidateAll() { m.Invalidate(false) }

// Stats returns the compute/hit counters accumulated so far.
func (m *Manager) Stats() Stats { return m.stats }

// CheckInvariants recomputes every currently cached analysis from
// scratch and compares it against the cached copy. A mismatch means
// some pass mutated the IR beyond what its declaration admits (it
// changed the CFG while declaring it preserved) and kept a now-stale
// analysis alive — the silent-miscompile precursor the
// -verify-each mode exists to catch. Analyses that are not cached are
// skipped (nothing can be stale about them). Returns nil when every
// cached analysis matches a fresh recomputation.
func (m *Manager) CheckInvariants() error {
	if m.preds != nil {
		fresh := Preds(m.fn)
		if len(fresh) != len(m.preds) {
			return fmt.Errorf("analysis: stale predecessor map on @%s: %d blocks cached, %d fresh", m.fn.Name(), len(m.preds), len(fresh))
		}
		for b, fp := range fresh {
			cp, ok := m.preds[b]
			if !ok || len(cp) != len(fp) {
				return fmt.Errorf("analysis: stale predecessor map on @%s at %%%s", m.fn.Name(), b.Name())
			}
			for i := range fp {
				if cp[i] != fp[i] {
					return fmt.Errorf("analysis: stale predecessor map on @%s at %%%s", m.fn.Name(), b.Name())
				}
			}
		}
	}
	if m.dt != nil {
		fresh := NewDomTree(m.fn)
		for _, b := range m.fn.Blocks {
			if m.dt.IDom(b) != fresh.IDom(b) {
				return fmt.Errorf("analysis: stale dominator tree on @%s: idom(%%%s) cached %v, fresh %v", m.fn.Name(), b.Name(), blockName(m.dt.IDom(b)), blockName(fresh.IDom(b)))
			}
		}
	}
	if m.li != nil {
		fresh := FindLoops(m.fn, NewDomTree(m.fn))
		if len(fresh.Loops) != len(m.li.Loops) {
			return fmt.Errorf("analysis: stale loop info on @%s: %d loops cached, %d fresh", m.fn.Name(), len(m.li.Loops), len(fresh.Loops))
		}
		for _, b := range m.fn.Blocks {
			ch, fh := loopHeader(m.li.LoopFor(b)), loopHeader(fresh.LoopFor(b))
			if ch != fh {
				return fmt.Errorf("analysis: stale loop info on @%s: innermost loop of %%%s changed", m.fn.Name(), b.Name())
			}
		}
	}
	if m.poison != nil {
		fresh := AnalyzePoison(m.fn)
		if !m.poison.equalFacts(fresh) {
			return fmt.Errorf("analysis: stale poison facts on @%s: cached lattice disagrees with a fresh fixpoint", m.fn.Name())
		}
	}
	return nil
}

func blockName(b *ir.Block) string {
	if b == nil {
		return "<nil>"
	}
	return "%" + b.Name()
}

func loopHeader(l *Loop) *ir.Block {
	if l == nil {
		return nil
	}
	return l.Header
}
