package refine

import (
	"bytes"
	"hash/maphash"
	"strconv"
	"sync"
	"sync/atomic"

	"tameir/internal/core"
	"tameir/internal/ir"
)

// Memo caches behaviour sets across refinement checks, keyed by the
// canonical (function, semantics) pair and the input vector's ordinal
// in Check's deterministic input enumeration.
//
// The traffic it serves is lopsided. A campaign never repeats a
// source: every candidate's text is new, so a source's sets can only
// be reused within the work on that one candidate. Targets are the
// opposite: -O2 collapses tens of thousands of candidates onto a few
// hundred forms, each worth deriving once and serving for good. The
// memo therefore admits on repeat:
//
//   - A MemoSession keeps the sets it derives in its two identity
//     slots (two because Check alternates between src and tgt on every
//     input), in per-slot arrays reused from check to check, and
//     answers repeat lookups of a slot's function from there.
//   - A function is published to the shared index only when it comes
//     back: in a later Check of the same session (one function checked
//     against several targets), as the other side of the same Check
//     (target text equal to source), or as a key whose hash the
//     doorkeeper recorded at an earlier sighting anywhere in the
//     process. Publishing copies what the slot already derived, so
//     nothing is derived twice.
//
// A function that never comes back thus costs one rendering of its key
// into a reused buffer and one hash, and leaves nothing in the index,
// the clock or the heap.
//
// Keys stay full canonical strings — a semantics/bounds fingerprint
// plus the function text — and a slot matches by pointer identity or
// full key equality, so a hit can never be a collision: a memoized
// verdict is always the verdict the engine would have produced (see
// TestMemoNeverChangesVerdict). The doorkeeper's hashes only decide
// when to publish: a collision publishes early, a forgotten hash
// publishes late, and neither changes a set. Incomplete sets are never
// cached — they depend on enumeration bounds in a way that is cheap to
// just redo. The identity slots assume functions are not mutated
// between checks that share a session; the pipeline upholds this by
// checking sources it never mutates and transforming private clones.
//
// A Memo IS safe for concurrent use: the function index is a
// stringMap split over memoShardCount lock stripes, and the doorkeeper
// and counters are atomic, so one memo can back every worker of a
// campaign and hits cross worker shards. Each goroutine drives it
// through its own MemoSession (NewSession), which holds the only
// unshared state. Bounded residency is a second-chance clock sweep
// that evicts cold behaviour sets to admit new ones; a function whose
// last set is evicted leaves the index, so the index is bounded by the
// clock's capacity too. An eviction can cost a recomputation but never
// changes a verdict (TestMemoEvictionKeepsVerdicts).
type Memo struct {
	funcs *stringMap[*memoFuncEntry]
	clock *clock[evictRef]
	door  doorkeeper
	seed  maphash.Seed
	// private recycles the sessions Check creates for callers that
	// bring none.
	private sync.Pool

	hits, lookups, sessionReuse, admissions atomic.Uint64
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
	// dead tells sessions still holding it to resolve the key afresh.
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

// MemoSession is one goroutine's handle on a shared Memo: its two
// identity slots and its share of the counters, which reach the Memo
// when a Check ends. Sessions are cheap; create one per worker (Check
// uses a private one when given a Memo without a Session).
type MemoSession struct {
	m     *Memo
	slots [2]memoSlot
	// next is the slot a miss replaces: the one used least recently.
	next  int
	check uint64 // sequence number of the current Check
	n     int    // the current Check's input count, which sizes arrays
	buf   []byte // key scratch, swapped into the slot that takes the key

	hits, lookups, reuse uint64
}

// memoSlot is one identity slot: a function, its rendered key, and the
// sets this session derived or fetched for it.
type memoSlot struct {
	fn    *ir.Func
	opts  memoOpts
	key   []byte
	check uint64 // the Check that last used the slot
	// admitted: the function came back, so its sets are also published
	// to entry (resolved from the index on first use).
	admitted bool
	entry    *memoFuncEntry
	sets     []BehaviorSet // by input ordinal
	have     []bool
}

// memoOpts is the comparable fingerprint of everything besides the
// function and inputs that determines a behaviour set.
type memoOpts struct {
	opts       core.Options
	srcMode    core.Mode // governs Check's input enumeration
	inputBits  uint      // ditto: the exhaustive-enumeration cutoff
	maxChoices int
	maxFanout  uint64
	maxExecs   int
	fuel       int
}

// memoRef carries a resolved slot from lookup to store so the key work
// is not repeated on the put path.
type memoRef struct {
	slot    *memoSlot
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

// NewSession returns a fresh session over m for use by one goroutine.
func (m *Memo) NewSession() *MemoSession { return &MemoSession{m: m} }

// Hits returns the number of lookups answered from the cache (summed
// over all sessions, slot reuse included).
func (m *Memo) Hits() uint64 { return m.hits.Load() }

// Lookups returns the total number of lookups.
func (m *Memo) Lookups() uint64 { return m.lookups.Load() }

// Evictions returns the number of behaviour sets evicted by the clock.
func (m *Memo) Evictions() uint64 { return m.clock.Evictions() }

// SessionReuse returns the number of hits a session answered from its
// own identity slots, without touching the shared index.
func (m *Memo) SessionReuse() uint64 { return m.sessionReuse.Load() }

// Admissions returns the number of functions published to the shared
// index because they came back.
func (m *Memo) Admissions() uint64 { return m.admissions.Load() }

// DoorkeeperEntries returns the number of key hashes the admission
// doorkeeper holds.
func (m *Memo) DoorkeeperEntries() int { return int(m.door.used.Load()) }

// Len returns the number of cached behaviour sets (approximate while
// concurrent stores are in flight).
func (m *Memo) Len() int { return m.clock.Len() }

// acquire hands out a private session; release takes it back, dropping
// its identities so nothing carries over to the next caller.
func (m *Memo) acquire() *MemoSession {
	if s, ok := m.private.Get().(*MemoSession); ok {
		return s
	}
	return m.NewSession()
}

func (m *Memo) release(s *MemoSession) {
	for i := range s.slots {
		s.slots[i].fn, s.slots[i].entry = nil, nil
	}
	m.private.Put(s)
}

// begin starts a Check over n inputs.
func (s *MemoSession) begin(n int) {
	s.check++
	s.n = n
}

// end folds the session's counters into the memo.
func (s *MemoSession) end() {
	m := s.m
	m.lookups.Add(s.lookups)
	m.hits.Add(s.hits)
	m.sessionReuse.Add(s.reuse)
	s.hits, s.lookups, s.reuse = 0, 0, 0
}

// appendMemoFuncKey renders the first-level key: the semantics/bounds
// fingerprint followed by the canonical function text. Everything the
// behaviour set (and Check's ordinal enumeration) depends on is in
// here. srcMode and inputBits must be part of the rendered key, not
// just the slot's opts: they steer Check's input enumeration, so the
// ordinal space is only stable within one (srcMode, inputBits) regime.
func appendMemoFuncKey(b []byte, fn *ir.Func, mo memoOpts) []byte {
	o := mo.opts
	for _, u := range [...]uint64{uint64(o.Mode), uint64(o.BranchPoison), uint64(o.SelectPoisonCond)} {
		b = append(strconv.AppendUint(b, u, 10), '|')
	}
	b = append(strconv.AppendBool(b, o.SelectArmPoisonEither), '|')
	b = append(strconv.AppendInt(b, int64(o.Fuel), 10), '|')
	b = append(strconv.AppendInt(b, int64(o.MaxCallDepth), 10), '|')
	b = append(strconv.AppendUint(b, uint64(mo.srcMode), 10), '|')
	b = append(strconv.AppendUint(b, uint64(mo.inputBits), 10), '|')
	b = append(strconv.AppendInt(b, int64(mo.maxChoices), 10), '|')
	b = append(strconv.AppendUint(b, mo.maxFanout, 10), '|')
	b = append(strconv.AppendInt(b, int64(mo.maxExecs), 10), '|')
	b = append(strconv.AppendInt(b, int64(mo.fuel), 10), 0)
	return fn.AppendTo(b)
}

func memoOptsOf(opts core.Options, cfg Config) memoOpts {
	return memoOpts{
		opts:       opts,
		srcMode:    cfg.SrcOpts.Mode,
		inputBits:  cfg.ExhaustiveInputBits,
		maxChoices: cfg.MaxChoices,
		maxFanout:  cfg.MaxFanout,
		maxExecs:   cfg.MaxExecs,
		fuel:       cfg.Fuel,
	}
}

// slotFor resolves fn's identity slot, taking over the least recently
// used one on a miss and deciding there whether fn is admitted.
func (s *MemoSession) slotFor(fn *ir.Func, mo memoOpts) *memoSlot {
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.fn == fn && sl.opts == mo {
			s.next = 1 - i
			if sl.check != s.check {
				sl.check = s.check
				s.admitFunc(sl) // back in a later Check of this session
			}
			return sl
		}
	}
	s.buf = appendMemoFuncKey(s.buf[:0], fn, mo)
	sl, other := &s.slots[s.next], &s.slots[1-s.next]
	s.next = 1 - s.next
	switch {
	case sl.fn != nil && bytes.Equal(sl.key, s.buf):
		// The slot's previous function had the same text, so its sets
		// still apply, and the text came back.
		sl.fn, sl.opts, sl.check = fn, mo, s.check
		s.admitFunc(sl)
		return sl
	case other.fn != nil && bytes.Equal(other.key, s.buf):
		// The other side of this Check has the same text.
		s.admitFunc(other)
		s.take(sl, fn, mo)
		sl.admitted, sl.entry = true, other.entry
		return sl
	}
	s.take(sl, fn, mo)
	if s.m.door.sighted(maphash.Bytes(s.m.seed, sl.key)) {
		if e, ok := s.m.funcs.Lookup(sl.key); ok {
			sl.admitted, sl.entry = true, e
		} else {
			s.admitFunc(sl)
		}
	}
	return sl
}

// take assigns sl to fn, whose key is in s.buf, with empty arrays
// sized for the current Check.
func (s *MemoSession) take(sl *memoSlot, fn *ir.Func, mo memoOpts) {
	sl.key, s.buf = s.buf, sl.key
	sl.fn, sl.opts, sl.check = fn, mo, s.check
	sl.admitted, sl.entry = false, nil
	if cap(sl.have) < s.n {
		sl.have, sl.sets = make([]bool, s.n), make([]BehaviorSet, s.n)
		return
	}
	sl.have, sl.sets = sl.have[:s.n], sl.sets[:s.n]
	clear(sl.have)
}

// admitFunc publishes sl's function: its sets go to the shared index
// from now on, starting with those the slot already holds.
func (s *MemoSession) admitFunc(sl *memoSlot) {
	if sl.admitted {
		return
	}
	sl.admitted = true
	s.m.admissions.Add(1)
	for i, ok := range sl.have {
		if ok {
			s.publish(sl, i, sl.sets[i])
		}
	}
}

// keep records a set in sl's own arrays.
func (s *MemoSession) keep(sl *memoSlot, ordinal int, set BehaviorSet) {
	for ordinal >= len(sl.have) {
		sl.have = append(sl.have, false)
		sl.sets = append(sl.sets, BehaviorSet{})
	}
	sl.sets[ordinal], sl.have[ordinal] = set, true
}

// publish stores an ordinal-indexed set in sl's shared entry.
func (s *MemoSession) publish(sl *memoSlot, ordinal int, set BehaviorSet) {
	e := s.m.lockEntry(sl.entry, sl.key, s.n)
	sl.entry = e
	ok := e.putIdx(ordinal, set)
	e.mu.Unlock()
	if ok {
		s.m.admit(evictRef{entry: e, ordinal: ordinal})
	}
}

// lookup resolves fn's set for the input vector at ordinal, its
// position in Check's deterministic enumeration, under (opts, cfg); ok
// reports a hit. The hot path does no string work at all. The returned
// ref is passed to store to cache a freshly computed set.
func (s *MemoSession) lookup(fn *ir.Func, ordinal int, opts core.Options, cfg Config) (memoRef, BehaviorSet, bool) {
	s.lookups++
	sl := s.slotFor(fn, memoOptsOf(opts, cfg))
	ref := memoRef{slot: sl, ordinal: ordinal}
	if ordinal < len(sl.have) && sl.have[ordinal] {
		s.hits++
		s.reuse++
		return ref, sl.sets[ordinal], true
	}
	if e := sl.entry; e != nil {
		e.mu.Lock()
		if !e.dead && ordinal < len(e.byIdx) && e.byIdx[ordinal].ok {
			x := &e.byIdx[ordinal]
			x.ref = true
			set := x.set
			e.mu.Unlock()
			s.hits++
			s.keep(sl, ordinal, set)
			return ref, set, true
		}
		e.mu.Unlock()
	}
	return ref, BehaviorSet{}, false
}

// store caches a computed set under a ref obtained from lookup: in the
// slot always, in the shared index once the function is admitted.
func (s *MemoSession) store(ref memoRef, set BehaviorSet) {
	if set.Incomplete {
		return
	}
	sl := ref.slot
	s.keep(sl, ref.ordinal, set)
	if sl.admitted {
		s.publish(sl, ref.ordinal, set)
	}
}

// lockEntry returns the live index entry for key — e itself while it
// lives — with its stripe lock held, creating the entry (byIdx sized
// for n inputs) when the index has none.
func (m *Memo) lockEntry(e *memoFuncEntry, key []byte, n int) *memoFuncEntry {
	for {
		if e == nil {
			var ok bool
			if e, ok = m.funcs.Lookup(key); !ok {
				k := string(key)
				e = m.funcs.GetOrCreate(k, func(mu *sync.Mutex) *memoFuncEntry {
					return &memoFuncEntry{mu: mu, key: k, byIdx: make([]idxSet, n)}
				})
			}
		}
		e.mu.Lock()
		if !e.dead {
			return e
		}
		e.mu.Unlock()
		e = nil
	}
}

// putIdx installs a set unless one is there already (another session
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
