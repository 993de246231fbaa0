// Package cache is the repo's generic concurrency-safe cache layer:
// the lock-sharded bounded table, second-chance clock eviction, and
// lock-striped get-or-create map that core.ProgramCache, refine.Memo
// and the bytecode lowering cache all instantiate, plus the versioned
// snapshot files behind -cache-dir warm starts (snapshot.go).
//
// The layer deliberately exposes mechanism, not policy. Each cache in
// the repo has its own keying discipline (full canonical strings so a
// hit can never be a collision; pointer identity plus a verified-text
// escape hatch) and its own invariant ("a cache hit or eviction never
// changes a verdict"); those live with the instantiations. What is
// shared — and what this package owns — is the concurrency shape:
// per-shard mutexes guard entry state, a single clock ring guards
// residency, and the only compound lock order anywhere is ring → shard
// (Clock.Admit takes shard locks through its callbacks while holding
// the ring; insert paths hold only their shard), so the layer cannot
// deadlock no matter how instantiations interleave.
package cache

import (
	"sync"
	"sync/atomic"

	"tameir/internal/telemetry"
)

// Clock is a bounded second-chance eviction ring over opaque
// references. Admit appends until the cap is reached, then sweeps: the
// hand clears reference bits (via recentlyUsed, which must report and
// clear in one step) until a cold victim turns up, evicts it, and
// installs the newcomer in its slot. A referenced entry therefore
// survives one full revolution after its last hit — the policy
// refine.Memo shipped with and ProgramCache copied.
//
// The ring holds its own mutex across the whole sweep. Callbacks may
// (and in every instantiation do) take per-shard entry locks; callers
// must never invoke Admit while holding such a lock, or the ring →
// shard order inverts.
type Clock[R any] struct {
	mu        sync.Mutex
	max       int
	refs      []R
	hand      int
	evictions atomic.Uint64
}

// NewClock returns a ring admitting at most max references (max must
// be positive).
func NewClock[R any](max int) *Clock[R] {
	if max <= 0 {
		panic("cache: NewClock needs a positive capacity")
	}
	return &Clock[R]{max: max}
}

// Cap returns the ring's capacity.
func (c *Clock[R]) Cap() int { return c.max }

// Len returns the number of admitted references (approximate while
// concurrent admissions are in flight).
func (c *Clock[R]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.refs)
}

// Evictions returns the number of references evicted by the sweep.
func (c *Clock[R]) Evictions() uint64 { return c.evictions.Load() }

// Admit registers r, evicting one cold reference first when the ring
// is full. recentlyUsed reports whether the candidate victim was hit
// since the hand last passed, clearing its reference bit either way;
// evict removes the chosen victim from its owner. Both run with the
// ring lock held. The sweep terminates within two revolutions: the
// first lap clears every reference bit.
func (c *Clock[R]) Admit(r R, recentlyUsed func(R) bool, evict func(R)) {
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

// StringHash is the layer's shared string hash (FNV-32a), exposed so
// instantiations that shard by string agree with StringMap's stripe
// selection.
func StringHash(key string) uint32 { return fnv32a(key) }

func fnv32a[T string | []byte](key T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// StringMap is a lock-striped, string-keyed get-or-create map for
// values that carry their own stripe-guarded mutable state: the
// constructor receives the stripe mutex so the value can keep it and
// guard its interior with it afterwards (refine.Memo's per-function
// entries do exactly that). The map never removes an entry by itself:
// bounded residency is the Clock's job, and an owner whose clock
// evicted the last of an entry's contents deletes the entry from
// inside its own critical section (DeleteLocked).
type StringMap[V any] struct {
	stripes []mapStripe[V]
}

type mapStripe[V any] struct {
	mu sync.Mutex
	m  map[string]V
}

// NewStringMap returns a map striped over n locks (n must be
// positive).
func NewStringMap[V any](n int) *StringMap[V] {
	if n <= 0 {
		panic("cache: NewStringMap needs a positive stripe count")
	}
	s := &StringMap[V]{stripes: make([]mapStripe[V], n)}
	for i := range s.stripes {
		s.stripes[i].m = make(map[string]V)
	}
	return s
}

// GetOrCreate returns the value under key, calling mk under the stripe
// lock to create it on first use. mk receives the stripe mutex that
// will guard the entry from then on.
func (s *StringMap[V]) GetOrCreate(key string, mk func(mu *sync.Mutex) V) V {
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

func (s *StringMap[V]) stripe(h uint32) *mapStripe[V] {
	return &s.stripes[h%uint32(len(s.stripes))]
}

// Lookup returns the value under key, if present. Taking the key as
// bytes lets a caller probe with a reused buffer without allocating a
// string.
func (s *StringMap[V]) Lookup(key []byte) (V, bool) {
	st := s.stripe(fnv32a(key))
	st.mu.Lock()
	v, ok := st.m[string(key)]
	st.mu.Unlock()
	return v, ok
}

// DeleteLocked removes key. The caller must hold key's stripe lock —
// the mutex mk received when the entry was created.
func (s *StringMap[V]) DeleteLocked(key string) {
	delete(s.stripe(fnv32a(key)).m, key)
}

// Len returns the number of entries.
func (s *StringMap[V]) Len() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n += len(st.m)
		st.mu.Unlock()
	}
	return n
}

// Range visits every entry with its stripe lock held, so f may read
// stripe-guarded interior state. Stripes are visited in index order,
// keys within a stripe in map order; callers that need deterministic
// output sort what they collect.
func (s *StringMap[V]) Range(f func(key string, v V)) {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for k, v := range st.m {
			f(k, v)
		}
		st.mu.Unlock()
	}
}

// Table is a bounded, lock-sharded map with second-chance eviction —
// the generic shape under core.ProgramCache and the bytecode lowering
// cache. Values live behind per-entry cells so the onHit callback can
// mutate a hit in place under the shard lock (the ProgramCache
// verified path recompiles stale programs that way). compute also runs
// under the shard lock, which serializes duplicate misses on the same
// key instead of computing twice.
type Table[K comparable, V any] struct {
	hash   func(K) uint32 // nil: single shard
	shards []tableShard[K, V]
	clock  *Clock[K]

	hits, misses atomic.Uint64
}

type tableShard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*tableEntry[V]
}

type tableEntry[V any] struct {
	v   V
	ref bool
}

// NewTable returns a table bounded to max entries, sharded over
// nShards locks selected by hash. A nil hash forces a single shard
// (the only option for keys with no cheap hash, e.g. struct keys
// containing pointers).
func NewTable[K comparable, V any](max, nShards int, hash func(K) uint32) *Table[K, V] {
	if max <= 0 {
		panic("cache: NewTable needs a positive capacity")
	}
	if hash == nil || nShards <= 1 {
		nShards = 1
		hash = nil
	}
	t := &Table[K, V]{hash: hash, shards: make([]tableShard[K, V], nShards), clock: NewClock[K](max)}
	for i := range t.shards {
		t.shards[i].m = make(map[K]*tableEntry[V])
	}
	return t
}

func (t *Table[K, V]) shardFor(k K) *tableShard[K, V] {
	if t.hash == nil {
		return &t.shards[0]
	}
	return &t.shards[t.hash(k)%uint32(len(t.shards))]
}

// GetOrCompute returns the value under k, computing and admitting it
// on a miss. On a hit the entry's reference bit is set and onHit (when
// non-nil) may mutate the stored value in place; both happen under the
// shard lock. hit reports which path ran.
func (t *Table[K, V]) GetOrCompute(k K, compute func() V, onHit func(*V)) (v V, hit bool) {
	sh := t.shardFor(k)
	sh.mu.Lock()
	if e, ok := sh.m[k]; ok {
		t.hits.Add(1)
		e.ref = true
		if onHit != nil {
			onHit(&e.v)
		}
		v = e.v
		sh.mu.Unlock()
		return v, true
	}
	t.misses.Add(1)
	v = compute()
	sh.m[k] = &tableEntry[V]{v: v}
	sh.mu.Unlock()
	// Ring → shard order: the insert above held only the shard lock, so
	// admitting afterwards cannot deadlock against a concurrent sweep.
	t.clock.Admit(k,
		func(victim K) bool {
			vs := t.shardFor(victim)
			vs.mu.Lock()
			defer vs.mu.Unlock()
			e := vs.m[victim]
			if e == nil || !e.ref {
				return false
			}
			e.ref = false
			return true
		},
		func(victim K) {
			vs := t.shardFor(victim)
			vs.mu.Lock()
			defer vs.mu.Unlock()
			delete(vs.m, victim)
		})
	return v, false
}

// Get returns the value under k without computing, setting the
// reference bit on a hit.
func (t *Table[K, V]) Get(k K) (v V, ok bool) {
	sh := t.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, found := sh.m[k]; found {
		t.hits.Add(1)
		e.ref = true
		return e.v, true
	}
	t.misses.Add(1)
	return v, false
}

// Keys returns a copy of every resident key, in no particular order —
// the raw material for metadata snapshots.
func (t *Table[K, V]) Keys() []K {
	var out []K
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	return out
}

// Range visits every resident entry with its shard lock held, shard
// by shard — the raw material for metadata snapshots. Visit order is
// unspecified; callers that need deterministic output sort what they
// collect. f must not call back into the table.
func (t *Table[K, V]) Range(f func(k K, v V)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			f(k, e.v)
		}
		sh.mu.Unlock()
	}
}

// Len returns the number of resident entries (approximate while
// concurrent inserts are between map insert and clock admission).
func (t *Table[K, V]) Len() int { return t.clock.Len() }

// Evictions returns the number of entries evicted by the clock.
func (t *Table[K, V]) Evictions() uint64 { return t.clock.Evictions() }

// Stats returns a point-in-time copy of the table's counters.
func (t *Table[K, V]) Stats() Stats {
	return Stats{
		Size:      t.clock.Len(),
		Capacity:  t.clock.Cap(),
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Evictions: t.clock.Evictions(),
	}
}

// Stats is a point-in-time copy of one cache's counters, with the
// optional telemetry hookup every instantiation shares.
type Stats struct {
	Size      int
	Capacity  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Publish exports the stats under <prefix>_{hits,misses,evictions}
// _total counters and <prefix>_{size,capacity} gauges.
func (s Stats) Publish(reg *telemetry.Registry, class telemetry.Class, prefix string) {
	reg.Counter(prefix+"_hits_total", class, "cache hits").Add(s.Hits)
	reg.Counter(prefix+"_misses_total", class, "cache misses").Add(s.Misses)
	reg.Counter(prefix+"_evictions_total", class, "cache clock evictions").Add(s.Evictions)
	reg.Gauge(prefix+"_size", class, "resident cache entries").Set(int64(s.Size))
	reg.Gauge(prefix+"_capacity", class, "cache entry cap").Set(int64(s.Capacity))
}
