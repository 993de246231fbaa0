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
//     nothing is stored. A target seen before resolves its shared
//     index entry, created on its first store.
//   - Per input, the handle reads or fills that entry under its stripe
//     lock (get/put).
//
// A target seen once thus costs one rendering of its key and one hash,
// and leaves nothing in the index, the clock or the heap. The
// doorkeeper earns its place on workloads whose targets rarely repeat:
// a tv-cfg-mutants rep hits on none of its 16,721 target lookups over
// 675 checks, and publishing on first sight would add an index entry
// of about 25 sets per check there.
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
// A Memo IS safe for concurrent use: the function index is a
// stringMap split over memoShardCount lock stripes, and the doorkeeper
// and counters are atomic, so one memo can back every worker of a
// campaign and hits cross worker shards. Bounded residency is a
// second-chance clock sweep over behaviour sets, not functions, that
// evicts cold sets to admit new ones: a wide i8 campaign holds up to
// 65,536 sets per function, so a bound counted in functions would not
// bound memory. A function whose last set is evicted leaves the index,
// so the index is bounded by the clock's capacity too. An eviction can
// cost a recomputation but never changes a verdict
// (TestMemoEvictionKeepsVerdicts).
type Memo struct {
	funcs *stringMap[*memoFuncEntry]
	clock *clock[evictRef]
	door  doorkeeper
	seed  maphash.Seed
	// keys recycles the buffers handles render keys into.
	keys sync.Pool

	hits, lookups, admissions atomic.Uint64
}

// memoShardCount is the lock-striping factor. 64 keeps contention
// negligible at any plausible worker count.
const memoShardCount = 64

type memoFuncEntry struct {
	mu  *sync.Mutex // home stripe lock; guards all mutable state below
	key string      // the index key, for removal
	// byIdx holds the sets by the input vector's ordinal in Check's
	// deterministic enumeration, sized from the Check's input count.
	// Sound because the key pins everything the sequence depends on:
	// the parameter types (via the function text) and the source mode.
	byIdx []idxSet
	// resident counts the sets admitted to the clock and not yet
	// evicted. When it drops to zero the entry leaves the index and
	// dead tells handles still holding it to resolve the key afresh.
	resident int
	dead     bool
}

type idxSet struct {
	set BehaviorSet
	ok  bool
	ref bool // clock reference bit, set on hit
}

// evictRef locates one admitted behaviour set for the clock sweep:
// entry.byIdx[ordinal].
type evictRef struct {
	entry   *memoFuncEntry
	ordinal int
}

// DefaultMemoEntries bounds a memo at roughly tens of MB for §6-sized
// functions.
const DefaultMemoEntries = 1 << 17

// NewMemo returns a memo holding at most max behaviour sets (0 means
// DefaultMemoEntries). When full, a clock sweep evicts cold sets to
// admit new ones.
func NewMemo(max int) *Memo {
	if max <= 0 {
		max = DefaultMemoEntries
	}
	m := &Memo{
		funcs: newStringMap[*memoFuncEntry](memoShardCount),
		clock: newClock[evictRef](max),
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

// Evictions returns the number of behaviour sets evicted by the clock.
func (m *Memo) Evictions() uint64 { return m.clock.Evictions() }

// Admissions returns the number of functions published to the shared
// index because they came back.
func (m *Memo) Admissions() uint64 { return m.admissions.Load() }

// DoorkeeperEntries returns the number of key hashes the admission
// doorkeeper holds.
func (m *Memo) DoorkeeperEntries() int { return int(m.door.used.Load()) }

// Len returns the number of cached behaviour sets (approximate while
// concurrent stores are in flight).
func (m *Memo) Len() int { return m.clock.Len() }

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
// its counters reach the Memo in fold, when the Check ends.
type memoHandle struct {
	m *Memo
	// key is the target's index key when the doorkeeper had seen it
	// before, and empty on a first sighting, which stores nothing.
	key   string
	entry *memoFuncEntry // key's index entry, once resolved
	n     int            // the Check's input count, which sizes a new entry

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
	key := appendMemoFuncKey((*buf)[:0], fn, opts, cfg)
	if m.door.sighted(maphash.Bytes(m.seed, key)) {
		if e, ok := m.funcs.Lookup(key); ok {
			h.key, h.entry = e.key, e
		} else {
			h.key = string(key)
		}
	}
	*buf = key
	m.keys.Put(buf)
	return h
}

// get returns the target's set for the input vector at ordinal, its
// position in Check's deterministic enumeration; ok reports a hit.
func (h *memoHandle) get(ordinal int) (set BehaviorSet, ok bool) {
	h.lookups++
	e := h.entry
	if e == nil {
		return set, false
	}
	e.mu.Lock()
	if !e.dead && ordinal < len(e.byIdx) && e.byIdx[ordinal].ok {
		x := &e.byIdx[ordinal]
		x.ref = true
		set, ok = x.set, true
		h.hits++
	}
	e.mu.Unlock()
	return set, ok
}

// put caches a set the target derived at ordinal, creating the key's
// entry on its first store and resolving the key afresh when the clock
// has killed the entry h holds. A first sighting stores nothing, and
// incomplete sets are never cached.
func (h *memoHandle) put(ordinal int, set BehaviorSet) {
	if h.key == "" || set.Incomplete {
		return
	}
	m, e := h.m, h.entry
	for {
		if e == nil {
			e = m.funcs.GetOrCreate(h.key, func(mu *sync.Mutex) *memoFuncEntry {
				m.admissions.Add(1)
				return &memoFuncEntry{mu: mu, key: h.key, byIdx: make([]idxSet, h.n)}
			})
		}
		e.mu.Lock()
		if !e.dead {
			break
		}
		e.mu.Unlock()
		e = nil
	}
	h.entry = e
	stored := e.putIdx(ordinal, set)
	e.mu.Unlock()
	if stored {
		m.admit(evictRef{entry: e, ordinal: ordinal})
	}
}

// fold adds the handle's counters to the memo's.
func (h *memoHandle) fold() {
	h.m.lookups.Add(h.lookups)
	h.m.hits.Add(h.hits)
}

// putIdx installs a set unless one is there already (another Check
// raced the same computation), reporting whether it did. Caller holds
// the entry's stripe lock.
func (e *memoFuncEntry) putIdx(ordinal int, set BehaviorSet) bool {
	if ordinal >= len(e.byIdx) {
		e.byIdx = append(e.byIdx, make([]idxSet, ordinal+1-len(e.byIdx))...)
	}
	if e.byIdx[ordinal].ok {
		return false
	}
	e.byIdx[ordinal] = idxSet{set: set, ok: true}
	e.resident++
	return true
}

// admit registers a freshly stored set with the clock, evicting a cold
// set first when the memo is at capacity. Lock order is strictly
// ring → stripe; the insert paths hold only the stripe lock, so the
// two cannot deadlock.
func (m *Memo) admit(r evictRef) {
	m.clock.Admit(r,
		func(v evictRef) bool {
			v.entry.mu.Lock()
			defer v.entry.mu.Unlock()
			return v.entry.deref(v)
		},
		func(v evictRef) {
			e := v.entry
			e.mu.Lock()
			defer e.mu.Unlock()
			e.remove(v)
			if e.resident == 0 && !e.dead {
				e.dead = true
				m.funcs.DeleteLocked(e.key)
			}
		})
}

// deref reports whether the referenced set was recently hit, clearing
// the reference bit. Caller holds the entry's stripe lock.
func (e *memoFuncEntry) deref(v evictRef) bool {
	if v.ordinal >= len(e.byIdx) || !e.byIdx[v.ordinal].ref {
		return false
	}
	e.byIdx[v.ordinal].ref = false
	return true
}

// remove drops the referenced set. Caller holds the entry's stripe
// lock.
func (e *memoFuncEntry) remove(v evictRef) {
	if v.ordinal < len(e.byIdx) && e.byIdx[v.ordinal].ok {
		e.byIdx[v.ordinal] = idxSet{}
		e.resident--
	}
}

// clock is the memo's bounded second-chance eviction ring. Admit
// appends until the cap is reached, then sweeps: the hand clears
// reference bits (via recentlyUsed, which must report and clear in one
// step) until a cold victim turns up, evicts it, and installs the
// newcomer in its slot. A referenced set therefore survives one full
// revolution after its last hit.
//
// The ring holds its own mutex across the whole sweep, and Memo.admit's
// callbacks take stripe locks under it, so the memo's one compound lock
// order is ring → stripe: nothing may call Admit while holding a stripe
// lock.
type clock[R any] struct {
	mu        sync.Mutex
	max       int
	refs      []R
	hand      int
	evictions atomic.Uint64
}

// newClock returns a ring admitting at most max references (max must
// be positive).
func newClock[R any](max int) *clock[R] {
	if max <= 0 {
		panic("refine: newClock needs a positive capacity")
	}
	return &clock[R]{max: max}
}

// Len returns the number of admitted references (approximate while
// concurrent admissions are in flight).
func (c *clock[R]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.refs)
}

// Evictions returns the number of references evicted by the sweep.
func (c *clock[R]) Evictions() uint64 { return c.evictions.Load() }

// Admit registers r, evicting one cold reference first when the ring
// is full. recentlyUsed reports whether the candidate victim was hit
// since the hand last passed, clearing its reference bit either way;
// evict removes the chosen victim from its owner. Both run with the
// ring lock held. The sweep terminates within two revolutions: the
// first lap clears every reference bit.
func (c *clock[R]) Admit(r R, recentlyUsed func(R) bool, evict func(R)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.refs) < c.max {
		c.refs = append(c.refs, r)
		return
	}
	for {
		v := c.refs[c.hand]
		if recentlyUsed(v) {
			c.hand = (c.hand + 1) % len(c.refs)
			continue
		}
		evict(v)
		c.refs[c.hand] = r
		c.hand = (c.hand + 1) % len(c.refs)
		c.evictions.Add(1)
		return
	}
}

// stringMap is the memo's function index: a lock-striped, string-keyed
// get-or-create map for values that keep their stripe mutex and guard
// their interior with it (memoFuncEntry.mu). The map never removes an
// entry by itself: bounded residency is the clock's job, and the evict
// callback deletes an entry whose last set it evicted from inside that
// stripe's critical section (DeleteLocked).
type stringMap[V any] struct {
	stripes []mapStripe[V]
}

type mapStripe[V any] struct {
	mu sync.Mutex
	m  map[string]V
}

// newStringMap returns a map striped over n locks (n must be
// positive).
func newStringMap[V any](n int) *stringMap[V] {
	if n <= 0 {
		panic("refine: newStringMap needs a positive stripe count")
	}
	s := &stringMap[V]{stripes: make([]mapStripe[V], n)}
	for i := range s.stripes {
		s.stripes[i].m = make(map[string]V)
	}
	return s
}

func fnv32a[T string | []byte](key T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (s *stringMap[V]) stripe(h uint32) *mapStripe[V] {
	return &s.stripes[h%uint32(len(s.stripes))]
}

// GetOrCreate returns the value under key, calling mk under the stripe
// lock to create it on first use. mk receives the stripe mutex that
// will guard the entry from then on.
func (s *stringMap[V]) GetOrCreate(key string, mk func(mu *sync.Mutex) V) V {
	st := s.stripe(fnv32a(key))
	st.mu.Lock()
	v, ok := st.m[key]
	if !ok {
		v = mk(&st.mu)
		st.m[key] = v
	}
	st.mu.Unlock()
	return v
}

// Lookup returns the value under key, if present. Taking the key as
// bytes lets a caller probe with a reused buffer without allocating a
// string.
func (s *stringMap[V]) Lookup(key []byte) (V, bool) {
	st := s.stripe(fnv32a(key))
	st.mu.Lock()
	v, ok := st.m[string(key)]
	st.mu.Unlock()
	return v, ok
}

// DeleteLocked removes key. The caller must hold key's stripe lock —
// the mutex mk received when the entry was created.
func (s *stringMap[V]) DeleteLocked(key string) {
	delete(s.stripe(fnv32a(key)).m, key)
}

// Len returns the number of entries.
func (s *stringMap[V]) Len() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n += len(st.m)
		st.mu.Unlock()
	}
	return n
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
