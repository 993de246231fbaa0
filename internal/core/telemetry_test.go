package core

import (
	"fmt"
	"testing"

	"tameir/internal/ir"
	"tameir/internal/telemetry"
)

func parseFn(t *testing.T, src string) *ir.Func {
	t.Helper()
	m, err := ir.ParseModule(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m.Funcs[len(m.Funcs)-1]
}

const traceSrc = `define i32 @g(i32 %a) {
entry:
  %b = add i32 %a, 1
  ret i32 %b
}
define i32 @f(i32 %a) {
entry:
  %c = call i32 @g(i32 %a)
  %d = mul i32 %c, 2
  ret i32 %d
}`

// TestTraceVariantsMatch: the traced and untraced program variants are
// distinct cache entries but produce identical outcomes, and only a
// traced env receives events.
func TestTraceVariantsMatch(t *testing.T) {
	fn := parseFn(t, traceSrc)
	opts := FreezeOptions()
	args := []Value{VC(ir.I32, 5)}

	envPlain, err := NewEnv(fn.Parent(), ZeroOracle{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	outPlain := envPlain.Run(fn, args)

	var events int
	envTraced, err := NewEnv(fn.Parent(), ZeroOracle{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	envTraced.Trace = func(depth int, in *ir.Instr, v Value) { events++ }
	outTraced := envTraced.Run(fn, args)

	if outPlain.String() != outTraced.String() {
		t.Fatalf("trace variant changed outcome: %v vs %v", outPlain, outTraced)
	}
	if outPlain.Kind != OutRet || outPlain.Val.Scalar().Bits != 12 {
		t.Fatalf("wrong result: %v", outPlain)
	}
	// add in @g, call in @f, mul in @f (ret/br do not trace).
	if events != 3 {
		t.Fatalf("traced env saw %d events, want 3", events)
	}
	if envPlain.Metrics.Execs != 1 || envPlain.Metrics.Steps == 0 {
		t.Fatalf("engine metrics not flushed: %+v", envPlain.Metrics)
	}

	// The two variants occupy distinct ProgramCache slots.
	c := NewProgramCache(8)
	var traced Options = opts
	traced.EmitTrace = true
	p1 := c.Get(fn, opts)
	p2 := c.Get(fn, traced)
	if p1 == p2 {
		t.Fatal("EmitTrace did not split the cache key")
	}
	if st := c.Stats(); st.Misses != 2 || st.Size != 2 {
		t.Fatalf("cache stats after two variant compiles: %+v", st)
	}
}

// TestProgramCacheClockEviction: the cache stays within its bound,
// counts hits/misses/evictions, and the second-chance bit protects a
// recently-referenced entry from the sweeping hand.
func TestProgramCacheClockEviction(t *testing.T) {
	mkFn := func(i int) *ir.Func {
		return parseFn(t, fmt.Sprintf(`define i32 @f%d(i32 %%a) {
entry:
  %%r = add i32 %%a, %d
  ret i32 %%r
}`, i, i))
	}
	opts := FreezeOptions()
	c := NewProgramCache(4)
	fns := make([]*ir.Func, 8)
	for i := range fns {
		fns[i] = mkFn(i)
	}
	for i := 0; i < 4; i++ {
		c.Get(fns[i], opts)
	}
	// Keep fn0 hot between insertions: the clock clears its ref bit
	// each time the hand passes, but a re-reference before the next
	// sweep renews the second chance, so fn0 outlives four evictions.
	hot := c.Get(fns[0], opts)
	for i := 4; i < 8; i++ {
		c.Get(fns[0], opts)
		c.Get(fns[i], opts)
	}
	st := c.Stats()
	if st.Size != 4 || st.Capacity != 4 {
		t.Fatalf("size %d cap %d, want 4/4", st.Size, st.Capacity)
	}
	if st.Misses != 8 || st.Hits != 5 || st.Evictions != 4 {
		t.Fatalf("stats %+v, want misses=8 hits=5 evictions=4", st)
	}
	// fn0 survived every sweep: getting it again is a hit on the same
	// Program, not a recompile.
	if got := c.Get(fns[0], opts); got != hot {
		t.Fatal("second-chance bit did not protect the hot entry")
	}
	if st := c.Stats(); st.Hits != 6 || st.Misses != 8 {
		t.Fatalf("stats after re-get: %+v", st)
	}
}

// TestEngineMetricsPublish: executor counters flow into a registry
// with the caller's class and frame pool hits dominate after warm-up.
func TestEngineMetricsPublish(t *testing.T) {
	fn := parseFn(t, traceSrc)
	prog := Compile(fn, FreezeOptions())
	ex := NewExecutor(prog)
	const runs = 10
	for i := 0; i < runs; i++ {
		out := ex.Run([]Value{VC(ir.I32, uint64(i))}, ZeroOracle{})
		if out.Kind != OutRet {
			t.Fatalf("run %d: %v", i, out)
		}
	}
	m := *ex.Metrics()
	if m.Execs != runs {
		t.Fatalf("Execs = %d, want %d", m.Execs, runs)
	}
	if m.Steps == 0 {
		t.Fatal("Steps not counted")
	}
	// The inner @g call takes one frame per run: first from a fresh
	// allocation, the rest pooled.
	if m.FramesAllocated+m.FramesPooled < runs {
		t.Fatalf("frame counters %+v do not cover %d inner calls", m, runs)
	}
	if m.FramesPooled == 0 {
		t.Fatalf("no pooled frames after warm-up: %+v", m)
	}

	reg := telemetry.NewRegistry()
	m.Publish(reg, telemetry.Deterministic)
	snap := reg.Snapshot()
	if s, ok := snap.Get("engine_execs_total"); !ok || s.Value != runs {
		t.Fatalf("engine_execs_total sample: %+v ok=%v", s, ok)
	}
	// Every compiled run goes through the closure engine.
	if s, ok := snap.Get("engine_execs_closure_total"); !ok || s.Value != runs {
		t.Fatalf("engine_execs_closure_total sample: %+v ok=%v", s, ok)
	}
	if _, ok := snap.Get("pool_frames_pooled_total"); !ok {
		t.Fatal("pool counters missing")
	}

	cache := NewProgramCache(4)
	cache.Get(fn, FreezeOptions())
	cache.Get(fn, FreezeOptions())
	cache.Stats().Publish(reg, telemetry.Scheduling)
	if s, ok := reg.Snapshot().Get("progcache_hits_total"); !ok || s.Value != 1 {
		t.Fatalf("progcache_hits_total sample: %+v ok=%v", s, ok)
	}
}
