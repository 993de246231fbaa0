package refine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
)

var memoPairs = []struct {
	src, tgt   string
	legacyOnly bool // uses undef, which the freeze dialect rejects
}{
	// Valid nsw comparison transform (§2.4).
	{src: `define i1 @f(i2 %a, i2 %b) {
entry:
  %add = add nsw i2 %a, %b
  %cmp = icmp sgt i2 %add, %a
  ret i1 %cmp
}`, tgt: `define i1 @f(i2 %a, i2 %b) {
entry:
  %cmp = icmp sgt i2 %b, 0
  ret i1 %cmp
}`},
	// Invalid wrapping variant of the same transform.
	{src: `define i1 @f(i2 %a, i2 %b) {
entry:
  %add = add i2 %a, %b
  %cmp = icmp sgt i2 %add, %a
  ret i1 %cmp
}`, tgt: `define i1 @f(i2 %a, i2 %b) {
entry:
  %cmp = icmp sgt i2 %b, 0
  ret i1 %cmp
}`},
	// Identity on a nondeterminism-heavy function: same src behaviour
	// sets get looked up by both sides.
	{src: `define i2 @g(i2 %a) {
entry:
  %x = freeze i2 %a
  %y = xor i2 %x, %a
  ret i2 %y
}`, tgt: `define i2 @g(i2 %a) {
entry:
  %x = freeze i2 %a
  %y = xor i2 %x, %a
  ret i2 %y
}`},
	// Refinement with undef in the source.
	{src: `define i2 @h(i2 %a) {
entry:
  %x = or i2 %a, undef
  ret i2 %x
}`, tgt: `define i2 @h(i2 %a) {
entry:
  ret i2 %a
}`, legacyOnly: true},
}

// TestMemoNeverChangesVerdict runs every pair twice per semantics —
// cold and against a warm shared memo — and requires identical
// Results. Memo keys are full canonical strings, so this holds by
// construction; the test guards the construction.
func TestMemoNeverChangesVerdict(t *testing.T) {
	for _, opts := range []core.Options{
		core.FreezeOptions(),
		core.LegacyOptions(core.BranchPoisonNondet),
	} {
		memo := NewMemo(0)
		for round := 0; round < 2; round++ {
			for i, p := range memoPairs {
				if p.legacyOnly && opts.Mode == core.Freeze {
					continue
				}
				src := ir.MustParseFunc(p.src)
				tgt := ir.MustParseFunc(p.tgt)
				cfg := DefaultConfig(opts, opts)

				plain := Check(src, tgt, cfg)
				cfg.Memo = memo
				memoized := Check(src, tgt, cfg)
				if !reflect.DeepEqual(plain, memoized) {
					t.Errorf("mode=%v pair=%d round=%d: memo changed verdict:\nplain:    %s\nmemoized: %s",
						opts.Mode, i, round, plain, memoized)
				}
			}
		}
		if memo.Hits() == 0 {
			t.Errorf("mode=%v: warm rounds produced no memo hits", opts.Mode)
		}
	}
}

// TestMemoHitsOnRepeatedCheck: once its target is admitted, a repeated
// identical Check must find every target set in the cache.
func TestMemoHitsOnRepeatedCheck(t *testing.T) {
	src := ir.MustParseFunc(memoPairs[0].src)
	tgt := ir.MustParseFunc(memoPairs[0].tgt)
	cfg := DefaultConfig(core.FreezeOptions(), core.FreezeOptions())
	cfg.Memo = NewMemo(0)

	Check(src, tgt, cfg) // first sighting: admission is on repeat
	primed := cfg.Memo.Lookups()
	Check(src, tgt, cfg)
	cold := cfg.Memo.Lookups() - primed
	if cold == 0 {
		t.Fatal("no memo lookups on the admitting Check")
	}
	hitsBefore := cfg.Memo.Hits()

	Check(src, tgt, cfg)
	if got := cfg.Memo.Hits() - hitsBefore; got != cold {
		t.Errorf("second Check: %d hits, want all %d lookups to hit", got, cold)
	}
}

// prime sights fn once as a target, and returns the handle of its
// second sighting, which is admitted: the state the direct get/put
// tests below start from. n sizes the entry its first put creates.
func prime(m *Memo, fn *ir.Func, cfg Config, n int) memoHandle {
	m.handle(fn, cfg.TgtOpts, &cfg, n)
	return m.handle(fn, cfg.TgtOpts, &cfg, n)
}

// shared reports whether m's shared index answers fn's set at ordinal,
// probing through a fresh handle; a hit sets the set's clock reference
// bit, as any hit does.
func shared(m *Memo, fn *ir.Func, ordinal int, cfg Config) bool {
	h := m.handle(fn, cfg.TgtOpts, &cfg, ordinal+1)
	_, ok := h.get(ordinal)
	return ok
}

// TestMemoEvictsWhenFull: a full memo admits new sets by evicting cold
// ones instead of refusing them.
func TestMemoEvictsWhenFull(t *testing.T) {
	m := NewMemo(1)
	fn := ir.MustParseFunc(memoPairs[2].src)
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	h := prime(m, fn, cfg, 2)

	for ordinal := 0; ordinal < 2; ordinal++ {
		h.put(ordinal, BehaviorSet{})
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (capacity)", m.Len())
	}
	if m.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", m.Evictions())
	}
	if shared(m, fn, 0, cfg) {
		t.Error("cold entry survived eviction")
	}
	if !shared(m, fn, 1, cfg) {
		t.Error("newly admitted entry missing")
	}
}

// TestMemoSecondChance: the clock spares recently hit sets and evicts
// cold ones.
func TestMemoSecondChance(t *testing.T) {
	m := NewMemo(2)
	fn := ir.MustParseFunc(memoPairs[2].src)
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	h := prime(m, fn, cfg, 3)

	for ordinal := 0; ordinal < 2; ordinal++ {
		h.put(ordinal, BehaviorSet{})
	}
	// Touch the first set so its reference bit protects it.
	if !shared(m, fn, 0, cfg) {
		t.Fatal("warm entry missing before eviction")
	}
	h.put(2, BehaviorSet{})

	if !shared(m, fn, 0, cfg) {
		t.Error("recently hit set was evicted despite its second chance")
	}
	if shared(m, fn, 1, cfg) {
		t.Error("cold set survived; clock should have chosen it as victim")
	}
	if !shared(m, fn, 2, cfg) {
		t.Error("newly admitted set missing")
	}
}

// TestMemoPutAfterEvictionResolves: a handle whose entry the clock
// killed stores into a live entry for the same key, which a fresh
// handle then finds.
func TestMemoPutAfterEvictionResolves(t *testing.T) {
	m := NewMemo(1)
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	a, b := ir.MustParseFunc(memoPairs[0].src), ir.MustParseFunc(memoPairs[0].tgt)
	ha := prime(m, a, cfg, 2)
	ha.put(0, BehaviorSet{})
	hb := prime(m, b, cfg, 1)
	hb.put(0, BehaviorSet{}) // evicts a's only set, so a's entry dies
	if shared(m, a, 0, cfg) {
		t.Fatal("a's set survived eviction")
	}
	ha.put(1, BehaviorSet{})
	if !shared(m, a, 1, cfg) {
		t.Error("a set stored after its entry died is not in the index")
	}
}

// TestMemoSkipsIncomplete: incomplete behaviour sets depend on the
// enumeration bounds and must never be cached.
func TestMemoSkipsIncomplete(t *testing.T) {
	m := NewMemo(0)
	fn := ir.MustParseFunc(memoPairs[2].src)
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	h := prime(m, fn, cfg, 1)
	h.put(0, BehaviorSet{Incomplete: true})
	if m.Len() != 0 {
		t.Error("incomplete set was cached")
	}
}

// TestMemoEvictionKeepsVerdicts squeezes every pair through a memo so
// small that eviction churns constantly, and requires the verdicts to
// match memo-less runs exactly. An eviction may cost a recomputation;
// it must never change a Result.
func TestMemoEvictionKeepsVerdicts(t *testing.T) {
	for _, opts := range []core.Options{
		core.FreezeOptions(),
		core.LegacyOptions(core.BranchPoisonNondet),
	} {
		memo := NewMemo(4)
		for round := 0; round < 2; round++ {
			for i, p := range memoPairs {
				if p.legacyOnly && opts.Mode == core.Freeze {
					continue
				}
				src := ir.MustParseFunc(p.src)
				tgt := ir.MustParseFunc(p.tgt)
				cfg := DefaultConfig(opts, opts)

				plain := Check(src, tgt, cfg)
				cfg.Memo = memo
				memoized := Check(src, tgt, cfg)
				if !reflect.DeepEqual(plain, memoized) {
					t.Errorf("mode=%v pair=%d round=%d: eviction changed verdict:\nplain:    %s\nmemoized: %s",
						opts.Mode, i, round, plain, memoized)
				}
			}
		}
		if memo.Evictions() == 0 {
			t.Errorf("mode=%v: memo of size 4 saw no evictions; test is not exercising the clock", opts.Mode)
		}
		if got := memo.Len(); got > 4 {
			t.Errorf("mode=%v: Len = %d exceeds capacity 4", opts.Mode, got)
		}
	}
}

// TestMemoConcurrentChecks shares one memo across goroutines that each
// check every pair, then requires the verdicts to match a serial
// memo-less run. Run under -race this also exercises the shard and
// ring locking.
func TestMemoConcurrentChecks(t *testing.T) {
	opts := core.LegacyOptions(core.BranchPoisonNondet)
	want := make([]Result, len(memoPairs))
	for i, p := range memoPairs {
		cfg := DefaultConfig(opts, opts)
		want[i] = Check(ir.MustParseFunc(p.src), ir.MustParseFunc(p.tgt), cfg)
	}

	memo := NewMemo(64) // small enough that workers also race evictions
	const workers = 8
	errs := make(chan string, workers*len(memoPairs))
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			cfg := DefaultConfig(opts, opts)
			cfg.Memo = memo
			for i, p := range memoPairs {
				got := Check(ir.MustParseFunc(p.src), ir.MustParseFunc(p.tgt), cfg)
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Sprintf("pair %d: concurrent verdict %s, want %s", i, got, want[i])
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if memo.Hits() == 0 {
		t.Error("concurrent checks produced no memo hits")
	}
}

// TestMemoFuncKeyMatchesFormat: the strconv-built first-level key is
// byte-identical to the fmt rendering it replaced.
func TestMemoFuncKeyMatchesFormat(t *testing.T) {
	fn := ir.MustParseFunc(memoPairs[0].src)
	for _, opts := range []core.Options{core.FreezeOptions(), core.LegacyOptions(core.BranchPoisonNondet)} {
		cfg := DefaultConfig(opts, opts)
		cfg.ExhaustiveInputBits = 8
		want := fmt.Sprintf("%d|%d|%d|%t|%d|%d|%d|%d|%d|%d|%d|%d\x00",
			opts.Mode, opts.BranchPoison, opts.SelectPoisonCond,
			opts.SelectArmPoisonEither, opts.Fuel, opts.MaxCallDepth,
			cfg.SrcOpts.Mode, cfg.ExhaustiveInputBits,
			cfg.MaxChoices, cfg.MaxFanout, cfg.MaxExecs, cfg.Fuel) + fn.String()
		if got := string(appendMemoFuncKey(nil, fn, opts, &cfg)); got != want {
			t.Errorf("mode=%v: key %q, want %q", opts.Mode, got, want)
		}
	}
}

// TestMemoSeenOnceNeverResident: a target seen once is derived and
// leaves nothing in the shared memo.
func TestMemoSeenOnceNeverResident(t *testing.T) {
	cfg := DefaultConfig(core.FreezeOptions(), core.FreezeOptions())
	cfg.Memo = NewMemo(0)
	Check(ir.MustParseFunc(memoPairs[0].src), ir.MustParseFunc(memoPairs[0].tgt), cfg)
	if n := cfg.Memo.Len(); n != 0 {
		t.Errorf("Len = %d after one sighting of the target, want 0", n)
	}
	if n := cfg.Memo.funcs.Len(); n != 0 {
		t.Errorf("index holds %d functions after one sighting of the target, want 0", n)
	}
}

// TestBehaviorsIgnoresMemo: Behaviors never consults the memo, whose
// sets are keyed by Check's input ordinals, and returns the set a
// memo-free call returns.
func TestBehaviorsIgnoresMemo(t *testing.T) {
	fn := ir.MustParseFunc(memoPairs[2].src)
	for _, opts := range []core.Options{
		core.FreezeOptions(),
		core.LegacyOptions(core.BranchPoisonNondet),
	} {
		cfg := DefaultConfig(opts, opts)
		args := []core.Value{core.VPoison(ir.I2)}
		want := Behaviors(fn, args, opts, cfg)
		cfg.Memo = NewMemo(0)
		for round := 0; round < 2; round++ {
			if got := Behaviors(fn, args, opts, cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("mode=%v round=%d: %s with a memo, %s without", opts.Mode, round, got, want)
			}
		}
		if n := cfg.Memo.Lookups(); n != 0 {
			t.Errorf("mode=%v: Behaviors made %d memo lookups, want 0", opts.Mode, n)
		}
	}
}

// TestMemoThirdSightingHits: the first sighting of a target only
// records it, the second admits and derives it, and the third finds
// every target set in the memo.
func TestMemoThirdSightingHits(t *testing.T) {
	cfg := DefaultConfig(core.FreezeOptions(), core.FreezeOptions())
	cfg.Memo = NewMemo(0)
	src, tgt := ir.MustParseFunc(memoPairs[0].src), ir.MustParseFunc(memoPairs[0].tgt)
	Check(src, tgt, cfg)
	Check(src, tgt, cfg)
	if cfg.Memo.Len() == 0 {
		t.Fatal("second sighting did not admit")
	}
	hits, lookups := cfg.Memo.Hits(), cfg.Memo.Lookups()
	r := Check(src, tgt, cfg)
	if h, l := cfg.Memo.Hits()-hits, cfg.Memo.Lookups()-lookups; h != l || l != uint64(r.Inputs) {
		t.Errorf("third sighting: %d hits of %d lookups over %d inputs, want a hit per input", h, l, r.Inputs)
	}
}

// TestMemoNeverConsultsSource: sources never come back in a campaign,
// so Check looks up its target only — one lookup per input — and
// derives every source set again however often the pair comes back.
func TestMemoNeverConsultsSource(t *testing.T) {
	for _, opts := range []core.Options{
		core.FreezeOptions(),
		core.LegacyOptions(core.BranchPoisonNondet),
	} {
		cfg := DefaultConfig(opts, opts)
		cfg.Memo = NewMemo(0)
		src, tgt := ir.MustParseFunc(memoPairs[0].src), ir.MustParseFunc(memoPairs[0].tgt)
		for round := 0; round < 3; round++ {
			var m CheckMetrics
			cfg.Metrics = &m
			lookups := cfg.Memo.Lookups()
			Check(src, tgt, cfg)
			if got := cfg.Memo.Lookups() - lookups; got != m.Inputs {
				t.Errorf("mode=%v round=%d: %d memo lookups for %d inputs, want one per input",
					opts.Mode, round, got, m.Inputs)
			}
			if round == 2 && (m.SetsComputed != m.Inputs || m.SetsMemoHit != m.Inputs) {
				t.Errorf("mode=%v round=%d: %d sets derived and %d from the memo over %d inputs, want every source set derived and every target set from the memo",
					opts.Mode, round, m.SetsComputed, m.SetsMemoHit, m.Inputs)
			}
		}
	}
}

// TestMemoHitSkipsCompile: a target whose behaviour sets are all in the
// memo is never compiled, so a Check against a memoized target compiles
// only its source.
func TestMemoHitSkipsCompile(t *testing.T) {
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	var plain CheckMetrics
	cfg.Metrics = &plain
	src := ir.MustParseFunc(memoPairs[0].src)
	tgt := memoPairs[0].tgt
	Check(src, ir.MustParseFunc(tgt), cfg)
	if plain.Compiles != 2 {
		t.Fatalf("memo-less Check compiled %d programs, want 2", plain.Compiles)
	}

	cfg.Memo = NewMemo(0)
	cfg.Metrics = nil
	Check(src, ir.MustParseFunc(tgt), cfg)
	Check(src, ir.MustParseFunc(tgt), cfg) // the target came back: admitted

	// A source the memo has never seen, against a target text it holds.
	fresh := ir.MustParseFunc("define i1 @f(i2 %a, i2 %b) {\nentry:\n  %add = add nsw i2 %b, %a\n  %cmp = icmp sgt i2 %add, %a\n  ret i1 %cmp\n}")
	var m CheckMetrics
	cfg.Metrics = &m
	if r := Check(fresh, ir.MustParseFunc(tgt), cfg); r.Status != Verified {
		t.Fatalf("fresh source: %s", r)
	}
	if m.Compiles != 1 || m.SetsMemoHit != m.Inputs {
		t.Errorf("memoized target: %d compiles and %d of %d target sets from the memo, want 1 compile (the source) and all",
			m.Compiles, m.SetsMemoHit, m.Inputs)
	}
}

// TestMemoIndexBounded: functions whose sets the clock has evicted
// leave the index, so many more repeated targets than the memo's
// capacity leave at most that capacity resident in it.
func TestMemoIndexBounded(t *testing.T) {
	const capacity = 8
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	cfg.Memo = NewMemo(capacity)
	const funcs = 40
	for i := 0; i < funcs; i++ {
		text := fmt.Sprintf("define i2 @f%d(i2 %%a) {\nentry:\n  %%x = xor i2 %%a, 1\n  ret i2 %%x\n}", i)
		// A target is admitted when it comes back.
		for range 2 {
			Check(ir.MustParseFunc(text), ir.MustParseFunc(text), cfg)
		}
	}
	if a := cfg.Memo.Admissions(); a != funcs {
		t.Fatalf("admitted %d functions, want %d", a, funcs)
	}
	if n := cfg.Memo.funcs.Len(); n > capacity {
		t.Errorf("index holds %d functions, want at most the capacity %d", n, capacity)
	}
	if n := cfg.Memo.Len(); n > capacity {
		t.Errorf("Len = %d exceeds capacity %d", n, capacity)
	}
}

// The clock must give a recently-used resident a second chance and
// evict the first cold one past the hand.
func TestClockSecondChance(t *testing.T) {
	c := newClock[int](2)
	used := map[int]bool{}
	var evicted []int
	recentlyUsed := func(r int) bool {
		u := used[r]
		used[r] = false
		return u
	}
	evict := func(r int) { evicted = append(evicted, r) }

	c.Admit(1, recentlyUsed, evict)
	c.Admit(2, recentlyUsed, evict)
	if c.Len() != 2 || len(evicted) != 0 {
		t.Fatalf("fill: len=%d evicted=%v", c.Len(), evicted)
	}

	used[1] = true // 1 is hot, 2 is cold
	c.Admit(3, recentlyUsed, evict)
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("expected the cold resident 2 evicted, got %v", evicted)
	}
	if used[1] {
		t.Fatal("the sweep must clear the reference bit it spared")
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Fatalf("len=%d evictions=%d, want 2/1", c.Len(), c.Evictions())
	}

	// Everything cold now: the next admission evicts exactly one more.
	c.Admit(4, recentlyUsed, evict)
	if len(evicted) != 2 || c.Len() != 2 || c.Evictions() != 2 {
		t.Fatalf("second admission: evicted=%v len=%d", evicted, c.Len())
	}
}

// A non-positive capacity is a programming error (NewMemo maps 0 to
// DefaultMemoEntries before it builds the ring), and the ring rejects
// it loudly rather than silently evicting everything.
func TestClockRejectsNonPositiveCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newClock(0) did not panic")
		}
	}()
	newClock[int](0)
}

func TestStringMapGetOrCreate(t *testing.T) {
	m := newStringMap[*int](16)
	made := 0
	mk := func(mu *sync.Mutex) *int {
		if mu == nil {
			t.Fatal("mk must receive the stripe mutex")
		}
		made++
		return new(int)
	}
	p := m.GetOrCreate("k", mk)
	if q := m.GetOrCreate("k", mk); q != p || made != 1 {
		t.Fatalf("GetOrCreate not idempotent: made=%d", made)
	}

	var wg sync.WaitGroup
	got := make([]*int, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.GetOrCreate("race", func(mu *sync.Mutex) *int { return new(int) })
		}(i)
	}
	wg.Wait()
	for _, g := range got[1:] {
		if g != got[0] {
			t.Fatal("concurrent GetOrCreate returned distinct values for one key")
		}
	}

	if v, ok := m.Lookup([]byte("race")); !ok || v != got[0] {
		t.Fatalf("Lookup(race) = %p, %v; want %p", v, ok, got[0])
	}
	if _, ok := m.Lookup([]byte("absent")); ok {
		t.Fatal("Lookup found a key never created")
	}
	if n := m.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}
