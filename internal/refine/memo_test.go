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

// TestMemoHitsOnRepeatedCheck: once admitted, a repeated identical
// Check must be answered entirely from the cache.
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
		t.Fatal("no memo lookups on first Check")
	}
	hitsBefore := cfg.Memo.Hits()

	Check(src, tgt, cfg)
	if got := cfg.Memo.Hits() - hitsBefore; got != cold {
		t.Errorf("second Check: %d hits, want all %d lookups to hit", got, cold)
	}
}

// prime sights fn once from a throwaway session, so that the next
// session admits it on its first lookup: the state the direct
// lookup/store tests below start from.
func prime(m *Memo, fn *ir.Func, opts core.Options, cfg Config) {
	m.NewSession().lookup(fn, nil, -1, opts, cfg)
}

// TestMemoEvictsWhenFull: a full memo admits new sets by evicting cold
// ones instead of refusing them.
func TestMemoEvictsWhenFull(t *testing.T) {
	m := NewMemo(1)
	s := m.NewSession()
	fn := ir.MustParseFunc(memoPairs[2].src)
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	prime(m, fn, opts, cfg)

	a := []core.Value{core.VC(ir.Int(2), 0)}
	b := []core.Value{core.VC(ir.Int(2), 1)}
	refA, _, _ := s.lookup(fn, a, -1, opts, cfg)
	s.store(refA, BehaviorSet{})
	refB, _, _ := s.lookup(fn, b, -1, opts, cfg)
	s.store(refB, BehaviorSet{})
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (capacity)", m.Len())
	}
	if m.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", m.Evictions())
	}
	if _, _, ok := s.lookup(fn, a, -1, opts, cfg); ok {
		t.Error("cold entry survived eviction")
	}
	if _, _, ok := s.lookup(fn, b, -1, opts, cfg); !ok {
		t.Error("newly admitted entry missing")
	}
}

// TestMemoSecondChance: the clock spares recently hit sets and evicts
// cold ones.
func TestMemoSecondChance(t *testing.T) {
	m := NewMemo(2)
	s := m.NewSession()
	fn := ir.MustParseFunc(memoPairs[2].src)
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	prime(m, fn, opts, cfg)

	vals := [][]core.Value{
		{core.VC(ir.Int(2), 0)},
		{core.VC(ir.Int(2), 1)},
		{core.VC(ir.Int(2), 2)},
	}
	for _, v := range vals[:2] {
		ref, _, _ := s.lookup(fn, v, -1, opts, cfg)
		s.store(ref, BehaviorSet{})
	}
	// Touch the first set so its reference bit protects it.
	if _, _, ok := s.lookup(fn, vals[0], -1, opts, cfg); !ok {
		t.Fatal("warm entry missing before eviction")
	}
	ref, _, _ := s.lookup(fn, vals[2], -1, opts, cfg)
	s.store(ref, BehaviorSet{})

	if _, _, ok := s.lookup(fn, vals[0], -1, opts, cfg); !ok {
		t.Error("recently hit set was evicted despite its second chance")
	}
	if _, _, ok := s.lookup(fn, vals[1], -1, opts, cfg); ok {
		t.Error("cold set survived; clock should have chosen it as victim")
	}
}

// TestMemoSkipsIncomplete: incomplete behaviour sets depend on the
// enumeration bounds and must never be cached.
func TestMemoSkipsIncomplete(t *testing.T) {
	m := NewMemo(0)
	s := m.NewSession()
	fn := ir.MustParseFunc(memoPairs[2].src)
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	prime(m, fn, opts, cfg)
	ref, _, _ := s.lookup(fn, nil, -1, opts, cfg)
	s.store(ref, BehaviorSet{Incomplete: true})
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

// TestMemoConcurrentSessions shares one memo across goroutines that
// each check every pair, then requires the verdicts to match a serial
// memo-less run. Run under -race this also exercises the shard and
// ring locking.
func TestMemoConcurrentSessions(t *testing.T) {
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
			cfg.Session = memo.NewSession()
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
		t.Error("concurrent sessions produced no cross-session hits")
	}
}

// TestMemoFuncKeyMatchesFormat: the strconv-built first-level key is
// byte-identical to the fmt rendering it replaced.
func TestMemoFuncKeyMatchesFormat(t *testing.T) {
	fn := ir.MustParseFunc(memoPairs[0].src)
	for _, opts := range []core.Options{core.FreezeOptions(), core.LegacyOptions(core.BranchPoisonNondet)} {
		cfg := DefaultConfig(opts, opts)
		cfg.ExhaustiveInputBits = 8
		mo := memoOptsOf(opts, cfg)
		want := fmt.Sprintf("%d|%d|%d|%t|%d|%d|%d|%d|%d|%d|%d|%d\x00",
			mo.opts.Mode, mo.opts.BranchPoison, mo.opts.SelectPoisonCond,
			mo.opts.SelectArmPoisonEither, mo.opts.Fuel, mo.opts.MaxCallDepth,
			mo.srcMode, mo.inputBits,
			mo.maxChoices, mo.maxFanout, mo.maxExecs, mo.fuel) + fn.String()
		if got := string(appendMemoFuncKey(nil, fn, mo)); got != want {
			t.Errorf("mode=%v: key %q, want %q", opts.Mode, got, want)
		}
	}
}

// TestMemoSeenOnceNeverResident: a function seen once is derived in
// its session's slots and leaves nothing in the shared memo.
func TestMemoSeenOnceNeverResident(t *testing.T) {
	cfg := DefaultConfig(core.FreezeOptions(), core.FreezeOptions())
	cfg.Memo = NewMemo(0)
	Check(ir.MustParseFunc(memoPairs[0].src), ir.MustParseFunc(memoPairs[0].tgt), cfg)
	if n := cfg.Memo.Len(); n != 0 {
		t.Errorf("Len = %d after one sighting of each side, want 0", n)
	}
	if n := cfg.Memo.funcs.Len(); n != 0 {
		t.Errorf("index holds %d functions after one sighting of each side, want 0", n)
	}
}

// checkExecs runs Check and returns the executions it performed.
func checkExecs(src, tgt *ir.Func, cfg Config) uint64 {
	var m CheckMetrics
	cfg.Metrics = &m
	Check(src, tgt, cfg)
	return m.Execs
}

// TestMemoSameTextSidesDeriveOnce: when the target's text equals the
// source's, the source is admitted within the Check and every set is
// derived once, serving both sides.
func TestMemoSameTextSidesDeriveOnce(t *testing.T) {
	opts := core.LegacyOptions(core.BranchPoisonNondet)
	cfg := DefaultConfig(opts, opts)
	src, tgt := ir.MustParseFunc(memoPairs[2].src), ir.MustParseFunc(memoPairs[2].tgt)
	plain := checkExecs(src, tgt, cfg)
	cfg.Memo = NewMemo(0)
	if got := checkExecs(src, tgt, cfg); 2*got != plain {
		t.Errorf("memoized Check ran %d executions, want %d (half of the memo-less %d)", got, plain/2, plain)
	}
	if cfg.Memo.Admissions() != 1 || cfg.Memo.Len() == 0 {
		t.Errorf("admissions=%d len=%d, want the shared text admitted once and resident", cfg.Memo.Admissions(), cfg.Memo.Len())
	}
}

// TestMemoFiveTransformsDeriveSourceOnce: a candidate checked against
// five transforms through one session derives its source sets once.
// Every target verifies, so each Check sweeps every input.
func TestMemoFiveTransformsDeriveSourceOnce(t *testing.T) {
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	src := ir.MustParseFunc(memoPairs[0].src)
	var tgts []*ir.Func
	for _, body := range []string{
		"%cmp = icmp sgt i2 %b, 0",
		"%cmp = icmp sge i2 %b, 1",
		"%cmp = icmp eq i2 %b, 1",
		"%add = add nsw i2 %b, %a\n  %cmp = icmp sgt i2 %add, %a",
		"%add = add nsw i2 %a, %b\n  %cmp = icmp slt i2 %a, %add",
	} {
		tgts = append(tgts, ir.MustParseFunc("define i1 @f(i2 %a, i2 %b) {\nentry:\n  "+body+"\n  ret i1 %cmp\n}"))
	}
	srcExecs := checkExecs(src, ir.CloneFunc(src), cfg) / 2
	var plain uint64
	for _, tgt := range tgts {
		if r := Check(src, tgt, cfg); r.Status != Verified {
			t.Fatalf("target does not verify: %s\n%s", r, tgt)
		}
		plain += checkExecs(src, tgt, cfg)
	}

	cfg.Memo = NewMemo(0)
	cfg.Session = cfg.Memo.NewSession()
	var got uint64
	for _, tgt := range tgts {
		got += checkExecs(src, tgt, cfg)
	}
	if want := plain - uint64(len(tgts)-1)*srcExecs; got != want {
		t.Errorf("five checks ran %d executions, want %d (source derived once)", got, want)
	}
	if cfg.Memo.SessionReuse() == 0 {
		t.Error("later checks never reused the session's source sets")
	}
}

// TestMemoThirdSightingHits: the first sighting only records the
// function, the second admits and derives it, the third is served
// entirely by the memo.
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
	if execs := checkExecs(src, tgt, cfg); execs != 0 {
		t.Errorf("third sighting ran %d executions, want 0", execs)
	}
	if h, l := cfg.Memo.Hits()-hits, cfg.Memo.Lookups()-lookups; h != l || l == 0 {
		t.Errorf("third sighting: %d hits of %d lookups, want all", h, l)
	}
}

// TestMemoHitSkipsCompile: a side whose behaviour sets are all in the
// memo is never compiled, so a Check against a memoized target compiles
// only its source, and a Check of two memoized sides compiles nothing.
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
	Check(src, ir.MustParseFunc(tgt), cfg) // both sides came back: admitted

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

	m = CheckMetrics{}
	if r := Check(src, ir.MustParseFunc(tgt), cfg); r.Status != Verified {
		t.Fatalf("memoized pair: %s", r)
	}
	if m.Compiles != 0 || m.Engine != (core.EngineMetrics{}) {
		t.Errorf("both sides memoized: %d compiles, engine counters %+v; want none", m.Compiles, m.Engine)
	}
}

// TestMemoIndexBounded: functions whose sets the clock has evicted
// leave the index, so many more repeated functions than the memo's
// capacity leave at most that capacity resident in it.
func TestMemoIndexBounded(t *testing.T) {
	const capacity = 8
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	cfg.Memo = NewMemo(capacity)
	const funcs = 40
	for i := 0; i < funcs; i++ {
		text := fmt.Sprintf("define i2 @f%d(i2 %%a) {\nentry:\n  %%x = xor i2 %%a, 1\n  ret i2 %%x\n}", i)
		// The target repeats the source's text, so each function is
		// admitted.
		Check(ir.MustParseFunc(text), ir.MustParseFunc(text), cfg)
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
