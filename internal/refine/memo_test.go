package refine

import (
	"fmt"
	"reflect"
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
// probing through a fresh handle.
func shared(m *Memo, fn *ir.Func, ordinal int, cfg Config) bool {
	h := m.handle(fn, cfg.TgtOpts, &cfg, ordinal+1)
	_, ok := h.get(ordinal)
	return ok
}

// TestMemoEvictsWhenFull: a store into a full memo drops every stored
// set and starts over with the new one, and Evictions counts the sets
// it dropped.
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
		t.Error("the set stored before the memo filled survived its start-over")
	}
	if !shared(m, fn, 1, cfg) {
		t.Error("the set whose store started the memo over is missing")
	}
}

// TestMemoPutAfterEvictionResolves: a handle resolved before the memo
// started over keeps its entry. It still answers the sets stored there
// and stores into it, a fresh handle sees none of them, and a Check
// across whose sweep the memo starts over keeps its verdict.
func TestMemoPutAfterEvictionResolves(t *testing.T) {
	m := NewMemo(2)
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	a, b := ir.MustParseFunc(memoPairs[0].src), ir.MustParseFunc(memoPairs[0].tgt)
	ha := prime(m, a, cfg, 2)
	ha.put(0, BehaviorSet{})
	hb := prime(m, b, cfg, 2)
	hb.put(0, BehaviorSet{})
	hb.put(1, BehaviorSet{}) // the memo is full: it starts over
	if m.Evictions() != 2 {
		t.Fatalf("Evictions = %d, want the 2 sets stored before b's second", m.Evictions())
	}
	if _, ok := ha.get(0); !ok {
		t.Error("a handle resolved before the start-over lost its entry's set")
	}
	ha.put(1, BehaviorSet{})
	if _, ok := ha.get(1); !ok {
		t.Error("a handle resolved before the start-over did not store into its entry")
	}
	if shared(m, a, 0, cfg) || shared(m, a, 1, cfg) {
		t.Error("a fresh handle sees sets stored in an entry the memo dropped")
	}

	// Under a second memo, another handle's stores start the memo over
	// in the middle of a Check's sweep: in the round that stores the
	// target's sets and in the round that reads them back.
	fill := ir.MustParseFunc("define i2 @fill(i2 %a) {\nentry:\n  %x = add i2 %a, 1\n  ret i2 %x\n}")
	for _, opts := range []core.Options{core.FreezeOptions(), core.LegacyOptions(core.BranchPoisonNondet)} {
		cfg := DefaultConfig(opts, opts)
		memo := NewMemo(256)
		const slots = 1 << 10
		other, ordinal := prime(memo, fill, cfg, slots), 0
		startOver := func() {
			for dropped := memo.Evictions(); memo.Evictions() == dropped; ordinal++ {
				other.put(ordinal%slots, BehaviorSet{})
			}
		}
		for i, p := range memoPairs {
			if p.legacyOnly && opts.Mode == core.Freeze {
				continue
			}
			src, tgt := ir.MustParseFunc(p.src), ir.MustParseFunc(p.tgt)
			cfg.Memo = nil
			plain := Check(src, tgt, cfg)
			cfg.Memo = memo
			for round := 0; round < 4; round++ {
				sets := 0
				cfg.BehaviorHook = func(BehaviorSet) {
					if sets++; sets == 3 && round%2 == 1 {
						startOver()
					}
				}
				hits, lookups := memo.Hits(), memo.Lookups()
				if got := Check(src, tgt, cfg); !reflect.DeepEqual(got, plain) {
					t.Errorf("mode=%v pair=%d round=%d: start-over changed verdict:\nplain:    %s\nmemoized: %s",
						opts.Mode, i, round, plain, got)
				}
				if h, l := memo.Hits()-hits, memo.Lookups()-lookups; round == 3 && h != l {
					t.Errorf("mode=%v pair=%d: %d hits of %d lookups across a start-over, want the handle to keep its entry",
						opts.Mode, i, h, l)
				}
			}
			cfg.BehaviorHook = nil
		}
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
// small that it starts over again and again, and requires the verdicts
// to match memo-less runs exactly. Starting over may cost a
// recomputation; it must never change a Result.
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
					t.Errorf("mode=%v pair=%d round=%d: start-over changed verdict:\nplain:    %s\nmemoized: %s",
						opts.Mode, i, round, plain, memoized)
				}
			}
		}
		if memo.Evictions() == 0 {
			t.Errorf("mode=%v: memo of size 4 never started over; test is not exercising the bound", opts.Mode)
		}
		if got := memo.Len(); got > 4 {
			t.Errorf("mode=%v: Len = %d exceeds capacity 4", opts.Mode, got)
		}
	}
}

// TestMemoConcurrentChecks shares one memo across goroutines that each
// check every pair, then requires the verdicts to match a serial
// memo-less run. The memo is smaller than the 36 sets of the first
// pairs' shared target, so the goroutines race its start-overs; run
// under -race this exercises the index lock and the slots' atomics.
func TestMemoConcurrentChecks(t *testing.T) {
	opts := core.LegacyOptions(core.BranchPoisonNondet)
	want := make([]Result, len(memoPairs))
	for i, p := range memoPairs {
		cfg := DefaultConfig(opts, opts)
		want[i] = Check(ir.MustParseFunc(p.src), ir.MustParseFunc(p.tgt), cfg)
	}

	memo := NewMemo(16)
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
	if memo.Evictions() == 0 {
		t.Error("concurrent checks never started the memo over")
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
	if n := len(cfg.Memo.funcs); n != 0 {
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

// TestMemoIndexBounded: a full memo drops its whole index, so many more
// repeated targets than the memo's capacity leave at most that
// capacity resident in it.
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
	// A function whose store started the memo over is published again.
	if a := cfg.Memo.Admissions(); a < funcs {
		t.Fatalf("admitted %d functions, want at least %d", a, funcs)
	}
	if cfg.Memo.Evictions() == 0 {
		t.Fatal("the memo never started over")
	}
	if n := len(cfg.Memo.funcs); n > capacity {
		t.Errorf("index holds %d functions, want at most the capacity %d", n, capacity)
	}
	if n := cfg.Memo.Len(); n > capacity {
		t.Errorf("Len = %d exceeds capacity %d", n, capacity)
	}
}
