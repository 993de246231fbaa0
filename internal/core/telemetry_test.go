package core

import (
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

// TestTraceVariantsMatch: a traced run (on the interpreter) and an
// untraced one (on the compiled engine) produce identical outcomes,
// and only a traced env receives events.
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
}
