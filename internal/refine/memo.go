package refine

import (
	"hash/maphash"
	"strconv"
	"sync"
	"sync/atomic"

	"tameir/internal/core"
	"tameir/internal/ir"
)

// Memo caches targets' behaviour sets across refinement checks, keyed
// by the canonical (function, semantics) pair and the input vector's
// ordinal in Check's deterministic input enumeration.
//
// It serves targets only, because only targets come back. In the §6
// stream a source never repeats: in the first 30,000 candidates of the
// 3-instruction i2 space, in either dialect, no source text repeats or
// equals an earlier target. The targets are the opposite: -O2
// collapses those candidates onto 465 forms, each worth deriving once
// and serving for good. Check's source side therefore never touches
// the memo, and its target side goes through a memoHandle, resolved
// once per Check:
//
//   - The handle renders the target's key into a reused buffer, hashes
//     it and asks the doorkeeper. A target whose hash the doorkeeper
//     has not recorded is a first sighting: its sets are derived and
//     nothing is stored. A target seen before resolves its index entry
//     under the read lock; the entry is created, under the write lock,
//     by its first store.
//   - Per input, the handle reads or fills one slot of that entry
//     (get/put). A slot is filled once, by CompareAndSwap, and never
//     cleared, so neither takes a lock.
//
// A target seen once thus costs one rendering of its key and one hash,
// and leaves nothing in the index or the heap. The doorkeeper earns its
// place on workloads whose targets rarely repeat: a tv-cfg-mutants rep
// hits on none of its 16,721 target lookups over 675 checks, and
// publishing on first sight would add an index entry of about 25 sets
// per check there.
//
// Keys stay full canonical strings — a semantics/bounds fingerprint
// plus the function text — so a hit can never be a collision: a
// memoized verdict is always the verdict the engine would have
// produced (see TestMemoNeverChangesVerdict). The doorkeeper's hashes
// only decide when to publish: a collision publishes early, a
// forgotten hash publishes late, and neither changes a set. Incomplete
// sets are never cached — they depend on enumeration bounds in a way
// that is cheap to just redo.
//
// A Memo IS safe for concurrent use, so one memo can back every worker
// of a campaign and hits cross worker shards. The bound is a count of
// stored sets, not functions: a wide i8 campaign holds up to 65,536
// sets per function. A store that finds the memo full drops the whole
// index and starts over. No CI campaign or benchmark rep fills the
// default bound, nor does a 3,000-function wide i8 campaign (48,573
// sets), so no finer policy is worth its locks. A handle
// resolved before a reset keeps its entry until its Check ends; its
// sets stay correct because they are keyed by full text, so a reset
// can cost recomputation but never changes a verdict
// (TestMemoEvictionKeepsVerdicts).
type Memo struct {
	mu    sync.RWMutex
	funcs map[string]*memoEntry // guarded by mu
	max   int64
	door  doorkeeper
	seed  maphash.Seed
	// keys recycles the buffers handles render keys into.
	keys sync.Pool

	// stored counts the sets stored since the memo last started over.
	stored                               atomic.Int64
	hits, lookups, admissions, evictions atomic.Uint64
}

// memoEntry holds one target's sets by the input vector's ordinal in
// Check's deterministic enumeration, sized once from the creating
// Check's input count. Sound because the key pins everything the
// sequence depends on: the parameter types (via the function text) and
// the source mode.
type memoEntry struct {
	sets []atomic.Pointer[BehaviorSet]
}

// DefaultMemoEntries bounds a memo at roughly tens of MB for §6-sized
// functions.
const DefaultMemoEntries = 1 << 17

// NewMemo returns a memo holding at most max behaviour sets (0 means
// DefaultMemoEntries). A store into a full memo drops every stored set
// and starts over.
func NewMemo(max int) *Memo {
	if max <= 0 {
		max = DefaultMemoEntries
	}
	m := &Memo{
		funcs: make(map[string]*memoEntry),
		max:   int64(max),
		seed:  maphash.MakeSeed(),
	}
	m.door.init(max)
	return m
}

// Hits returns the number of lookups answered from the cache.
func (m *Memo) Hits() uint64 { return m.hits.Load() }

// Lookups returns the total number of lookups: one per target input
// Check swept.
func (m *Memo) Lookups() uint64 { return m.lookups.Load() }

// Evictions returns the number of behaviour sets dropped when a full
// memo started over.
func (m *Memo) Evictions() uint64 { return m.evictions.Load() }

// Admissions returns the number of functions published to the shared
// index because they came back (again after each start-over).
func (m *Memo) Admissions() uint64 { return m.admissions.Load() }

// DoorkeeperEntries returns the number of key hashes the admission
// doorkeeper holds.
func (m *Memo) DoorkeeperEntries() int { return int(m.door.used.Load()) }

// Len returns the number of behaviour sets stored since the memo last
// started over (approximate while concurrent stores are in flight).
func (m *Memo) Len() int { return int(m.stored.Load()) }

// appendMemoFuncKey renders the first-level key: the fingerprint of fn's
// semantics (opts) and of cfg's bounds, followed by the canonical
// function text. Everything the behaviour set (and Check's ordinal
// enumeration) depends on is in here, the source mode and
// ExhaustiveInputBits included: they steer Check's input enumeration,
// so the ordinal space is only stable within one such regime.
func appendMemoFuncKey(b []byte, fn *ir.Func, opts core.Options, cfg *Config) []byte {
	for _, u := range [...]uint64{uint64(opts.Mode), uint64(opts.BranchPoison), uint64(opts.SelectPoisonCond)} {
		b = append(strconv.AppendUint(b, u, 10), '|')
	}
	b = append(strconv.AppendBool(b, opts.SelectArmPoisonEither), '|')
	b = append(strconv.AppendInt(b, int64(opts.Fuel), 10), '|')
	b = append(strconv.AppendInt(b, int64(opts.MaxCallDepth), 10), '|')
	b = append(strconv.AppendUint(b, uint64(cfg.SrcOpts.Mode), 10), '|')
	b = append(strconv.AppendUint(b, uint64(cfg.ExhaustiveInputBits), 10), '|')
	b = append(strconv.AppendInt(b, int64(cfg.MaxChoices), 10), '|')
	b = append(strconv.AppendUint(b, cfg.MaxFanout, 10), '|')
	b = append(strconv.AppendInt(b, int64(cfg.MaxExecs), 10), '|')
	b = append(strconv.AppendInt(b, int64(cfg.Fuel), 10), 0)
	return fn.AppendTo(b)
}

// memoHandle is one Check's handle on the memo for its target. Check
// holds it by value in the target's side, so it costs no allocation;
// its counters reach the Memo, and its key buffer the pool, in fold,
// when the Check ends.
type memoHandle struct {
	m *Memo
	// key is the target's rendered index key when the doorkeeper had
	// seen it before, and nil on a first sighting, which stores nothing.
	key   *[]byte
	entry *memoEntry // key's index entry, once resolved
	n     int        // the Check's input count, which sizes a new entry

	hits, lookups uint64
}

// handle resolves the handle of fn, run under opts, for a Check over
// n inputs under cfg: it renders the key, asks the doorkeeper, and on
// a repeat sighting looks up the key's index entry.
func (m *Memo) handle(fn *ir.Func, opts core.Options, cfg *Config, n int) memoHandle {
	h := memoHandle{m: m, n: n}
	buf, _ := m.keys.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	*buf = appendMemoFuncKey((*buf)[:0], fn, opts, cfg)
	if !m.door.sighted(maphash.Bytes(m.seed, *buf)) {
		m.keys.Put(buf)
		return h
	}
	h.key = buf
	m.mu.RLock()
	h.entry = m.funcs[string(*buf)]
	m.mu.RUnlock()
	return h
}

// get returns the target's set for the input vector at ordinal, its
// position in Check's deterministic enumeration; ok reports a hit.
func (h *memoHandle) get(ordinal int) (set BehaviorSet, ok bool) {
	h.lookups++
	if e := h.entry; e != nil && ordinal < len(e.sets) {
		if p := e.sets[ordinal].Load(); p != nil {
			h.hits++
			return *p, true
		}
	}
	return set, false
}

// put caches a set the target derived at ordinal, creating the key's
// entry on its first store. A store that finds the memo full moves the
// handle to its key's entry in the index that starts over. A first
// sighting stores nothing, incomplete sets are never cached, and a
// slot already filled (another Check raced the same computation) or
// past the entry's end is left as it is.
func (h *memoHandle) put(ordinal int, set BehaviorSet) {
	if h.key == nil || set.Incomplete {
		return
	}
	m := h.m
	if h.entry == nil || m.stored.Load() >= m.max {
		h.entry = m.entry(*h.key, h.n)
	}
	e := h.entry
	if ordinal >= len(e.sets) || e.sets[ordinal].Load() != nil {
		return
	}
	p := new(BehaviorSet)
	*p = set
	if e.sets[ordinal].CompareAndSwap(nil, p) {
		m.stored.Add(1)
	}
}

// entry returns key's index entry, creating it with a slot for each of
// n inputs. When the memo is full it first drops the whole index.
func (m *Memo) entry(key []byte, n int) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.stored.Load(); s >= m.max {
		m.evictions.Add(uint64(s))
		m.stored.Store(0)
		clear(m.funcs)
	}
	e := m.funcs[string(key)]
	if e == nil {
		e = &memoEntry{sets: make([]atomic.Pointer[BehaviorSet], n)}
		m.funcs[string(key)] = e
		m.admissions.Add(1)
	}
	return e
}

// fold adds the handle's counters to the memo's and recycles its key
// buffer.
func (h *memoHandle) fold() {
	h.m.lookups.Add(h.lookups)
	h.m.hits.Add(h.hits)
	if h.key != nil {
		h.m.keys.Put(h.key)
	}
}

// doorkeeper remembers the key hashes of functions seen recently,
// direct-mapped into a fixed table of atomics: a newer hash replaces
// whatever older one shares its slot, so the table forgets rather than
// grows.
type doorkeeper struct {
	slots []atomic.Uint64
	used  atomic.Int64
}

// init sizes the table from the memo's capacity: a power of two
// between 1Ki and 64Ki slots (512 KiB).
func (d *doorkeeper) init(capacity int) {
	n := 1 << 10
	for n < capacity && n < 1<<16 {
		n <<= 1
	}
	d.slots = make([]atomic.Uint64, n)
}

// sighted records h and reports whether it was already recorded.
func (d *doorkeeper) sighted(h uint64) bool {
	h |= 1 // zero marks an empty slot
	slot := &d.slots[(h>>32)&uint64(len(d.slots)-1)]
	if slot.Load() == h {
		return true
	}
	if slot.Swap(h) == 0 {
		d.used.Add(1)
	}
	return false
}
