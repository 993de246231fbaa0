package core_test

// Differential tests for the compiled execution engine: every function
// must produce exactly the interpreter's outcomes — same Outcome kind,
// same value, same UB message — under every semantics variant, for
// every resolution of nondeterminism. The two engines (tree-walking
// interpreter, closure engine) run in lockstep on paired enumeration
// oracles, so a divergence in *which* choice points are reached (not
// just in outcomes) also fails: behaviour-set equality downstream is
// byte-identical by construction only if the Choose-call sequences
// match.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
)

// diffVariants are the semantics under which the engines are compared:
// the paper's freeze proposal plus the §3 legacy knob settings that
// resolve its ambiguities in different directions.
func diffVariants() []struct {
	name string
	opts core.Options
} {
	legacySel := func(sp core.SelectPoisonBehavior, either bool) core.Options {
		o := core.LegacyOptions(core.BranchPoisonNondet)
		o.SelectPoisonCond = sp
		o.SelectArmPoisonEither = either
		return o
	}
	return []struct {
		name string
		opts core.Options
	}{
		{"freeze", core.FreezeOptions()},
		{"legacy-br-nondet", core.LegacyOptions(core.BranchPoisonNondet)},
		{"legacy-br-ub", core.LegacyOptions(core.BranchPoisonIsUB)},
		{"legacy-sel-ub", legacySel(core.SelectPoisonCondUB, true)},
		{"legacy-sel-nondet", legacySel(core.SelectPoisonCondNondet, true)},
		{"legacy-sel-chosen-arm", legacySel(core.SelectPoisonCondPoison, false)},
	}
}

// paramInputs enumerates the cartesian product of per-parameter
// candidate values: every concrete value of small int types, plus
// poison, plus undef under legacy semantics.
func paramInputs(fn *ir.Func, mode core.Mode) [][]core.Value {
	cands := make([][]core.Value, len(fn.Params))
	for i, p := range fn.Params {
		ty := p.Ty
		var vs []core.Value
		switch {
		case ty.IsInt() && ty.Bits <= 3:
			for v := uint64(0); v < 1<<ty.Bits; v++ {
				vs = append(vs, core.VC(ty, v))
			}
		case ty.IsInt():
			for _, v := range []uint64{0, 1, ir.TruncBits(^uint64(0), uint(ty.Bits))} {
				vs = append(vs, core.VC(ty, v))
			}
		default:
			vs = append(vs, core.VPoison(ty))
		}
		if ty.IsInt() {
			vs = append(vs, core.VPoison(ty))
			if mode == core.Legacy {
				vs = append(vs, core.VUndef(ty))
			}
		}
		cands[i] = vs
	}
	var out [][]core.Value
	idx := make([]int, len(cands))
	for {
		args := make([]core.Value, len(cands))
		for i, j := range idx {
			args[i] = cands[i][j]
		}
		out = append(out, args)
		k := len(idx) - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < len(cands[k]) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return out
		}
	}
}

// outcomeKey renders everything observable about an outcome, including
// the UB/error message Outcome.String omits.
func outcomeKey(o core.Outcome) string {
	s := o.String()
	if o.Msg != "" {
		s += " | " + o.Msg
	}
	return s
}

// diffOne sweeps both engines through the oracle enumeration on one
// (function, input), up to maxExecs executions, and fails on the first
// divergence.
func diffOne(t *testing.T, label string, fn *ir.Func, ex *core.Executor, args []core.Value, opts core.Options, maxExecs int) {
	t.Helper()
	const maxChoices, maxFanout = 16, 1 << 8
	oi := core.NewEnumOracle(maxChoices, maxFanout)
	oc := core.NewEnumOracle(maxChoices, maxFanout)
	for exec := 0; ; exec++ {
		if exec > maxExecs {
			// Undef-heavy functions can have more resolutions than worth
			// sweeping (refine stops here too, via MaxExecs); every
			// execution so far was compared, which is the point.
			return
		}
		oi.Reset()
		oc.Reset()
		outI := core.Interpret(fn, args, oi, opts)
		outC := ex.Run(args, oc)
		ki, kc := outcomeKey(outI), outcomeKey(outC)
		if ki != kc {
			t.Fatalf("%s: args %v exec %d:\ninterpreted: %s\ncompiled:    %s\n%s",
				label, args, exec, ki, kc, fn)
		}
		ni, nc := oi.Next(), oc.Next()
		if ni != nc {
			t.Fatalf("%s: args %v exec %d: oracle enumeration diverged (interp next=%t, compiled next=%t) — the engines take different Choose sequences\n%s",
				label, args, exec, ni, nc, fn)
		}
		if !ni {
			break
		}
	}
	if oi.Overflowed != oc.Overflowed {
		t.Fatalf("%s: args %v: overflow flags diverge (interp %t, compiled %t)\n%s",
			label, args, oi.Overflowed, oc.Overflowed, fn)
	}
}

// diffFunc compiles fn once and lockstep-compares every input across
// the interpreter and the closure engine. It returns the closure
// executor's engine counters.
func diffFunc(t *testing.T, label string, fn *ir.Func, opts core.Options) core.EngineMetrics {
	t.Helper()
	return diffFuncExecs(t, label, fn, opts, 1<<14)
}

// diffFuncExecs is diffFunc comparing at most maxExecs oracle paths per
// input.
func diffFuncExecs(t *testing.T, label string, fn *ir.Func, opts core.Options, maxExecs int) core.EngineMetrics {
	t.Helper()
	ex := core.NewExecutor(core.Compile(fn, opts))
	for _, args := range paramInputs(fn, opts.Mode) {
		diffOne(t, label, fn, ex, args, opts, maxExecs)
	}
	return *ex.Metrics()
}

// compiledCorpus is hand-written IR hitting the constructs the
// exhaustive and random generators cannot produce: phis (including
// swap patterns and poison incomings), loops, memory, gep, globals,
// vectors, casts and calls.
var compiledCorpus = []struct {
	name       string
	src        string
	legacyOnly bool // uses undef, which the freeze dialect rejects
	fuel       int  // execution fuel; 0 keeps the default
	// exit, for a case that never returns, says how the compiled
	// engine must end it: "cycle" (proven divergent and stopped
	// early) or "fuel" (run to the fuel limit). The interpreter always
	// runs to the limit, so the lockstep shows the early exit exact.
	exit string
}{
	{name: "phi-merge", src: `define i2 @f(i2 %a, i2 %b) {
entry:
  %c = icmp ult i2 %a, %b
  br i1 %c, label %t, label %e
t:
  %x = add i2 %a, 1
  br label %done
e:
  %y = mul i2 %b, 2
  br label %done
done:
  %r = phi i2 [ %x, %t ], [ %y, %e ]
  ret i2 %r
}`},
	{name: "phi-poison-incoming", src: `define i2 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %done
e:
  br label %done
done:
  %r = phi i2 [ poison, %t ], [ 2, %e ]
  ret i2 %r
}`},
	{name: "phi-undef-incoming", legacyOnly: true, src: `define i2 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %done
e:
  br label %done
done:
  %r = phi i2 [ undef, %t ], [ 1, %e ]
  %s = xor i2 %r, %r
  ret i2 %s
}`},
	{name: "phi-swap-loop", src: `define i2 @f(i2 %n) {
entry:
  br label %loop
loop:
  %a = phi i2 [ 0, %entry ], [ %b, %loop ]
  %b = phi i2 [ 1, %entry ], [ %a, %loop ]
  %i = phi i2 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i2 %i, 1
  %c = icmp ult i2 %i1, %n
  br i1 %c, label %loop, label %done
done:
  ret i2 %a
}`},
	{name: "loop-store-load", src: `define i8 @f(i2 %n) {
entry:
  %a = alloca i8, i32 4
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %i1, %body ]
  %w = zext i2 %n to i8
  %c = icmp ult i8 %i, %w
  br i1 %c, label %body, label %done
body:
  %p = getelementptr i8, ptr %a, i8 %i
  store i8 %i, ptr %p
  %i1 = add i8 %i, 1
  br label %loop
done:
  %p0 = getelementptr i8, ptr %a, i8 0
  %v = load i8, ptr %p0
  ret i8 %v
}`},
	{name: "oob-gep-ub", src: `define i8 @f(i2 %i) {
entry:
  %a = alloca i8, i32 2
  %z = zext i2 %i to i8
  %p = getelementptr i8, ptr %a, i8 %z
  %v = load i8, ptr %p
  ret i8 %v
}`},
	{name: "branch-on-poison", src: `define i2 @f(i2 %x) {
entry:
  %c = icmp eq i2 poison, %x
  br i1 %c, label %t, label %e
t:
  ret i2 1
e:
  ret i2 2
}`},
	{name: "branch-on-undef", legacyOnly: true, src: `define i2 @f() {
entry:
  %c = icmp eq i2 undef, 0
  br i1 %c, label %t, label %e
t:
  ret i2 1
e:
  ret i2 2
}`},
	{name: "select-knobs", src: `define i2 @f(i2 %x, i2 %y) {
entry:
  %c = icmp sgt i2 %x, %y
  %s = select i1 %c, i2 %x, i2 poison
  %u = select i1 poison, i2 %s, i2 %y
  ret i2 %u
}`},
	{name: "freeze-chain", src: `define i2 @f(i2 %a) {
entry:
  %x = freeze i2 %a
  %y = xor i2 %x, %x
  %z = freeze i2 poison
  %r = or i2 %y, %z
  ret i2 %r
}`},
	{name: "vector-lanes", src: `define <2 x i2> @f(i2 %a) {
entry:
  %v = insertelement <2 x i2> <i2 1, i2 poison>, i2 %a, i32 0
  %w = add <2 x i2> %v, <i2 1, i2 1>
  ret <2 x i2> %w
}`},
	{name: "vector-extract-oob", src: `define i2 @f(i2 %i) {
entry:
  %z = zext i2 %i to i32
  %e = extractelement <2 x i2> <i2 1, i2 2>, i32 %z
  ret i2 %e
}`},
	{name: "bitcast-poison-smear", src: `define i8 @f() {
entry:
  %b = bitcast <8 x i1> <i1 1, i1 0, i1 poison, i1 0, i1 0, i1 0, i1 0, i1 0> to i8
  ret i8 %b
}`},
	{name: "casts", src: `define i8 @f(i2 %a) {
entry:
  %z = zext i2 %a to i8
  %s = sext i2 %a to i8
  %x = xor i8 %z, %s
  %t = trunc i8 %x to i2
  %r = zext i2 %t to i8
  ret i8 %r
}`},
	{name: "udiv-by-zero-ub", src: `define i2 @f(i2 %a, i2 %b) {
entry:
  %q = udiv i2 %a, %b
  ret i2 %q
}`},
	{name: "nsw-nuw-exact", src: `define i2 @f(i2 %a, i2 %b) {
entry:
  %x = add nsw i2 %a, %b
  %y = mul nuw i2 %x, %b
  %z = lshr exact i2 %y, %a
  ret i2 %z
}`},
	{name: "call-chain", src: `define i2 @sq(i2 %x) {
entry:
  %m = mul i2 %x, %x
  ret i2 %m
}
define i2 @f(i2 %a) {
entry:
  %r = call i2 @sq(i2 %a)
  %s = add i2 %r, 1
  %t = call i2 @sq(i2 %s)
  ret i2 %t
}`},
	{name: "recursion", src: `define i8 @fact(i8 %n) {
entry:
  %z = icmp eq i8 %n, 0
  br i1 %z, label %base, label %rec
base:
  ret i8 1
rec:
  %n1 = sub i8 %n, 1
  %r = call i8 @fact(i8 %n1)
  %m = mul i8 %n, %r
  ret i8 %m
}
define i8 @f(i2 %a) {
entry:
  %w = zext i2 %a to i8
  %r = call i8 @fact(i8 %w)
  ret i8 %r
}`},
	{name: "globals", src: `@tab = global 4 init 10 20 30
define i8 @f(i2 %i) {
entry:
  %z = zext i2 %i to i32
  %p = getelementptr i8, ptr @tab, i32 %z
  %v = load i8, ptr %p
  ret i8 %v
}`},
	{name: "uninit-load", src: `define i8 @f() {
entry:
  %a = alloca i8, i32 1
  %v = load i8, ptr %a
  ret i8 %v
}`},
	{name: "store-poison-ptr", src: `define void @f(i2 %x) {
entry:
  store i2 %x, ptr poison
  ret void
}`},
	{name: "unreachable", src: `define i2 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  unreachable
e:
  ret i2 3
}`},
	{name: "infinite-loop-fuel", fuel: 500, exit: "cycle", src: `define void @f() {
entry:
  br label %loop
loop:
  br label %loop
}`},
	{name: "i2-counter-wraps", fuel: 500, exit: "cycle", src: `define i2 @f(i2 %n) {
entry:
  br label %loop
loop:
  %i = phi i2 [ %n, %entry ], [ %i1, %loop ]
  %i1 = add i2 %i, 1
  %c = icmp ugt i2 %i1, 3
  br i1 %c, label %done, label %loop
done:
  ret i2 %i1
}`},
	{name: "phi-swap-forever", fuel: 500, exit: "cycle", src: `define i2 @f(i2 %x) {
entry:
  br label %loop
loop:
  %a = phi i2 [ %x, %entry ], [ %b, %loop ]
  %b = phi i2 [ 1, %entry ], [ %a, %loop ]
  br label %loop
}`},
	{name: "i16-counter-no-repeat", fuel: 500, exit: "fuel", src: `define i2 @f(i2 %n) {
entry:
  br label %loop
loop:
  %i = phi i16 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i16 %i, 1
  %c = icmp eq i16 %i1, 0
  br i1 %c, label %done, label %loop
done:
  ret i2 %n
}`},
	// Chooses on every iteration until MaxChoices overflows, then
	// repeats with the oracle pinned at its limit.
	{name: "freeze-poison-loop", fuel: 500, exit: "cycle", src: `define i2 @f(i2 %n) {
entry:
  br label %loop
loop:
  %i = phi i2 [ %n, %entry ], [ %i1, %loop ]
  %x = freeze i1 poison
  %i1 = add i2 %i, 1
  br i1 %x, label %done, label %loop
done:
  ret i2 %i
}`},
	// Chooses on every fourth backward jump only, so snapshots are
	// taken long before MaxChoices overflows, at states whose
	// registers recur four jumps later with the oracle one choice on.
	{name: "freeze-every-fourth-jump", fuel: 500, exit: "cycle", src: `define i2 @f(i2 %n) {
entry:
  br label %loop
loop:
  %i = phi i2 [ %n, %entry ], [ %i1, %loop ], [ %i1, %pick ]
  %i1 = add i2 %i, 1
  %c = icmp eq i2 %i1, 0
  br i1 %c, label %pick, label %loop
pick:
  %x = freeze i1 poison
  br i1 %x, label %done, label %loop
done:
  ret i2 %i
}`},
	{name: "undef-branch-loop", legacyOnly: true, fuel: 500, exit: "cycle", src: `define i2 @f(i2 %n) {
entry:
  br label %loop
loop:
  %i = phi i2 [ %n, %entry ], [ %i1, %loop ]
  %i1 = xor i2 %i, 1
  br i1 undef, label %done, label %loop
done:
  ret i2 %i
}`},
	// Registers repeat every four iterations, but memory is not part
	// of the detector's state, so no early exit.
	{name: "store-loop-forever", fuel: 500, exit: "fuel", src: `define i2 @f(i2 %n) {
entry:
  %a = alloca i2, i32 1
  br label %loop
loop:
  %i = phi i2 [ %n, %entry ], [ %i1, %loop ]
  store i2 %i, ptr %a
  %i1 = add i2 %i, 1
  br label %loop
}`},
	// The caller's registers repeat on every jump while the counter in
	// memory climbs to the exit: only the memory rule keeps the run
	// going.
	{name: "memory-counter-loop", src: `define i1 @tick(ptr %p) {
entry:
  %v = load i8, ptr %p
  %v1 = add i8 %v, 1
  store i8 %v1, ptr %p
  %c = icmp eq i8 %v1, 20
  ret i1 %c
}
define i2 @f(i2 %n) {
entry:
  %p = alloca i8, i32 1
  store i8 0, ptr %p
  br label %loop
loop:
  %d = call i1 @tick(ptr %p)
  br i1 %d, label %done, label %loop
done:
  ret i2 %n
}`},
	{name: "callee-spins", fuel: 500, exit: "cycle", src: `define i2 @spin(i2 %x) {
entry:
  br label %loop
loop:
  %i = phi i2 [ %x, %entry ], [ %i1, %loop ]
  %i1 = mul i2 %i, 3
  br label %loop
}
define i2 @f(i2 %a) {
entry:
  %b = add i2 %a, 1
  %r = call i2 @spin(i2 %b)
  ret i2 %r
}`},
	// Each call makes one backward jump, the first call's is snapshot,
	// and the second call's reaches the same state at the same depth:
	// only dropping the snapshot when its activation returns keeps the
	// second call from being taken for a cycle.
	{name: "callee-loop-called-twice", src: `define i2 @two() {
entry:
  br label %loop
loop:
  %i = phi i2 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i2 %i, 1
  %c = icmp ult i2 %i1, 2
  br i1 %c, label %loop, label %done
done:
  ret i2 %i1
}
define i2 @f(i2 %a) {
entry:
  %x = call i2 @two()
  %y = call i2 @two()
  %s = add i2 %x, %y
  %r = add i2 %s, %a
  ret i2 %r
}`},
	// @f's loop and @g's have the same block index and registers; @g's
	// jump, one call deeper, must not match the snapshot @f's took.
	{name: "caller-and-callee-same-loop", src: `define i2 @g(i2 %a) {
entry:
  br label %loop
loop:
  %i = phi i2 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i2 %i, 1
  %c = icmp ult i2 %i1, 2
  br i1 %c, label %loop, label %done
done:
  %r = add i2 %i1, %a
  ret i2 %r
}
define i2 @f(i2 %a) {
entry:
  br label %loop
loop:
  %i = phi i2 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i2 %i, 1
  %c = icmp ult i2 %i1, 2
  br i1 %c, label %loop, label %done
done:
  %r = call i2 @g(i2 %a)
  ret i2 %r
}`},
}

// TestEnvRunCycleExit covers what the lockstep sweep cannot: an Env
// carries its fuel from run to run, so a cycle exit must leave it as
// empty as the fuel limit would, and a traced env runs on the
// interpreter, which sees every step and never exits early.
func TestEnvRunCycleExit(t *testing.T) {
	m, err := ir.ParseModule(`define i2 @spin(i2 %a) {
entry:
  br label %loop
loop:
  %i = phi i2 [ %a, %entry ], [ %i1, %loop ]
  %i1 = add i2 %i, 1
  br label %loop
}
define i2 @one() {
entry:
  ret i2 1
}`)
	if err != nil {
		t.Fatal(err)
	}
	spin, one := m.Funcs[0], m.Funcs[1]
	opts := core.FreezeOptions()
	opts.Fuel = 500
	for _, traced := range []bool{false, true} {
		var envs [2]*core.Env // interpreter, closure engine
		var events [2]int
		for i := range envs {
			if envs[i], err = core.NewEnv(m, core.ZeroOracle{}, opts); err != nil {
				t.Fatal(err)
			}
			if traced {
				n := &events[i]
				envs[i].Trace = func(int, *ir.Instr, core.Value) { *n++ }
			}
		}
		// The second run finds the fuel the first one left: none.
		for _, run := range []struct {
			fn   *ir.Func
			args []core.Value
		}{{spin, []core.Value{core.VC(ir.I2, 1)}}, {one, nil}} {
			want, got := envs[0].RunInterp(run.fn, run.args), envs[1].Run(run.fn, run.args)
			if want.String() != got.String() {
				t.Errorf("traced=%t @%s: closure engine %s, interpreter %s", traced, run.fn.Name(), got, want)
			}
		}
		if events[0] != events[1] {
			t.Errorf("traced=%t: closure engine traced %d steps, interpreter %d", traced, events[1], events[0])
		}
		wantExits := uint64(1)
		if traced {
			wantExits = 0
		}
		if got := envs[1].Metrics.CycleExits; got != wantExits {
			t.Errorf("traced=%t: %d cycle exits, want %d", traced, got, wantExits)
		}
	}
}

// TestUndefResolutionAllocatesNothing enumerates the 16 paths of a
// legacy function on an undef argument, whose every use resolves the
// undef afresh: the closure engine carves the resolved lanes from the
// run's arena, so a warmed-up executor allocates nothing, with merging
// off and on.
func TestUndefResolutionAllocatesNothing(t *testing.T) {
	fn := ir.MustParseFunc(`define i2 @f(i2 %p0) {
entry:
  %v = add i2 %p0, 1
  %w = mul i2 %v, %p0
  ret i2 %w
}`)
	ex := core.NewExecutor(core.Compile(fn, core.LegacyOptions(core.BranchPoisonNondet)))
	o := core.NewEnumOracle(16, 1<<8)
	args := []core.Value{core.VUndef(ir.I2)}
	for _, merging := range []bool{false, true} {
		enumerate := func() (paths int) {
			o.Clear(16, 1<<8)
			if merging {
				o.EnableMerging()
			}
			for {
				o.Reset()
				ex.Run(args, o)
				paths += o.LastPaths()
				if !o.Next() {
					return paths
				}
			}
		}
		if n := enumerate(); n != 16 {
			t.Fatalf("merging=%t: %d paths, want 16", merging, n)
		}
		if a := testing.AllocsPerRun(20, func() { enumerate() }); a != 0 {
			t.Errorf("merging=%t: %v allocations per enumeration, want 0", merging, a)
		}
	}
}

// TestCompiledMatchesInterpreter is the engine-parity property test
// demanded by the compile/run split: compiled execution must be
// observationally identical to interpretation, outcome for outcome and
// choice for choice.
func TestCompiledMatchesInterpreter(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		for _, tc := range compiledCorpus {
			m, err := ir.ParseModule(tc.src)
			if err != nil {
				t.Fatalf("%s: parse: %v", tc.name, err)
			}
			fn := m.Funcs[len(m.Funcs)-1]
			for _, v := range diffVariants() {
				if tc.legacyOnly && v.opts.Mode == core.Freeze {
					continue
				}
				opts := v.opts
				opts.Fuel = tc.fuel
				label := tc.name + "/" + v.name
				m := diffFunc(t, label, fn, opts)
				switch {
				case tc.exit == "cycle" && m.CycleExits == 0:
					t.Errorf("%s: the compiled engine never stopped the divergent loop early", label)
				case tc.exit == "fuel" && (m.CycleExits != 0 || m.FuelExits == 0):
					t.Errorf("%s: the compiled engine: %d cycle exits, %d fuel exits; want none and some", label, m.CycleExits, m.FuelExits)
				}
			}
		}
	})

	t.Run("exhaustive-straightline", func(t *testing.T) {
		// A deterministic stride through the 3-instruction space keeps
		// runtime bounded while sampling all template regions.
		gen := optfuzz.DefaultConfig(3)
		gen.AllowPoison = true
		gen.EnumAttrs = true
		const want, stride = 120, 997
		var fns []*ir.Func
		n := 0
		optfuzz.Exhaustive(gen, func(f *ir.Func) bool {
			if n%stride == 0 {
				fns = append(fns, ir.CloneFunc(f))
			}
			n++
			return len(fns) < want
		})
		if len(fns) < want/2 {
			t.Fatalf("sampled only %d functions", len(fns))
		}
		for i, fn := range fns {
			for _, v := range diffVariants() {
				diffFunc(t, fmt.Sprintf("exhaustive[%d]/%s", i, v.name), fn, v.opts)
			}
		}
	})

	t.Run("random-cfg", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20170619)) // PLDI'17 et al.
		rcfg := optfuzz.DefaultRandomConfig()
		rcfg.AllowPoison = true
		for i := 0; i < 80; i++ {
			fn := optfuzz.Random(rng, rcfg)
			for _, v := range diffVariants() {
				if v.opts.Mode == core.Freeze {
					continue // random functions may embed undef leaves
				}
				diffFunc(t, fmt.Sprintf("random[%d]/%s", i, v.name), fn, v.opts)
			}
		}
		// Freeze-dialect round without undef leaves.
		rcfg.AllowUndef = false
		for i := 0; i < 40; i++ {
			fn := optfuzz.Random(rng, rcfg)
			diffFunc(t, fmt.Sprintf("random-freeze[%d]", i), fn, core.FreezeOptions())
		}
	})

	t.Run("mutant-cfg", func(t *testing.T) {
		// CFG mutants (loops, diamonds, phis) in both dialects, at a fuel
		// low enough that looping mutants soon reach the fuel limit or a
		// proven cycle. Legacy mutants loop over undef, which multiplies
		// the oracle paths per input, so they compare fewer of them. The
		// cycle-exit counter must come out positive, or the lockstep
		// never compared an early exit.
		var exits uint64
		for _, d := range []struct {
			mode     ir.VerifyMode
			opts     core.Options
			maxExecs int
		}{
			{ir.VerifyFreeze, core.FreezeOptions(), 1 << 14},
			{ir.VerifyLegacy, core.LegacyOptions(core.BranchPoisonNondet), 256},
		} {
			opts := d.opts
			opts.Fuel = 200
			for i, fn := range mutantCFGs(d.mode, 40) {
				exits += diffFuncExecs(t, fmt.Sprintf("mutant-%s[%d]", opts.Mode, i), fn, opts, d.maxExecs).CycleExits
			}
		}
		if exits == 0 {
			t.Fatal("no cycle exits: the mutants never exercised the early exit")
		}
	})
}

// mutantCFGs returns the mutants of epochs 1-3 of one
// optfuzz.MutationSource lineage in the given dialect, perEpoch each.
// The source advances on feedback derived from each mutant's text
// alone, so the mutants do not depend on any engine under test. freeze
// is left out of the opcode menu, as in the benchmark's mutant corpus:
// a freeze inside a long loop makes one input enumerate thousands of
// oracle paths.
func mutantCFGs(mode ir.VerifyMode, perEpoch int) []*ir.Func {
	gen := optfuzz.DefaultConfig(3)
	gen.AllowUndef = mode == ir.VerifyLegacy
	gen.AllowPoison = true
	gen.Opcodes = []ir.Op{
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem,
		ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpICmp, ir.OpSelect,
	}
	mcfg := optfuzz.DefaultMutationConfig(13)
	mcfg.Gen = gen
	mcfg.Mode = mode
	mcfg.Epochs = 4
	mcfg.PerEpoch = perEpoch
	src := optfuzz.NewMutationSource(mcfg)
	var out []*ir.Func
	for epoch := 0; epoch < mcfg.Epochs; epoch++ {
		var fb []optfuzz.Feedback
		for s := 0; s < src.Shards(); s++ {
			idx := 0
			src.Enumerate(s, 0, func(f *ir.Func) bool {
				text := f.String()
				if epoch > 0 {
					out = append(out, f)
				}
				h := fnv.New64a()
				h.Write([]byte(text))
				fb = append(fb, optfuzz.Feedback{Shard: s, Index: idx, Src: text, Behavior: h.Sum64()})
				idx++
				return true
			})
		}
		src.Advance(epoch, fb)
	}
	return out
}

// TestProgramSharedAcrossGoroutines exercises the shared frame pool:
// one compiled Program driven concurrently, through one Executor per
// goroutine, must give every goroutine the serial answer. Run under
// -race in CI.
func TestProgramSharedAcrossGoroutines(t *testing.T) {
	m, err := ir.ParseModule(compiledCorpus[4].src) // loop-store-load: memory + phis
	if err != nil {
		t.Fatal(err)
	}
	fn := m.Funcs[0]
	opts := core.FreezeOptions()
	prog := core.Compile(fn, opts)

	inputs := paramInputs(fn, opts.Mode)
	want := make([]string, len(inputs))
	for i, args := range inputs {
		want[i] = outcomeKey(core.Interpret(fn, args, core.ZeroOracle{}, opts))
	}

	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex := core.NewExecutor(prog)
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(inputs)
				out := ex.Run(inputs[i], core.ZeroOracle{})
				if got := outcomeKey(out); got != want[i] {
					errs <- fmt.Sprintf("worker %d round %d input %v: got %s, want %s", w, r, inputs[i], got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCompiledExecutorRebindMatchesFresh: one executor bound in turn to
// every corpus program, in one order and then the reverse (so its
// reused frame, arena, memory and cycle detector meet programs both
// larger and smaller than the last), runs every input in lockstep
// with the interpreter, and counts exactly what a fresh executor
// counts on the same sweep.
func TestCompiledExecutorRebindMatchesFresh(t *testing.T) {
	var shared *core.Executor
	check := func(label string, fn *ir.Func, opts core.Options) {
		p := core.Compile(fn, opts)
		if shared == nil {
			shared = core.NewExecutor(p)
		} else {
			shared.Bind(p)
		}
		fresh := core.NewExecutor(p)
		for _, args := range paramInputs(fn, opts.Mode) {
			diffOne(t, label+"/rebound", fn, shared, args, opts, 1<<12)
			diffOne(t, label+"/fresh", fn, fresh, args, opts, 1<<12)
		}
		// The two executors share p's inner-call frame pool, so only the
		// number of inner frames they took is comparable, not the split
		// into pool hits and allocations.
		ms, mf := *shared.Metrics(), *fresh.Metrics()
		ms.FramesPooled, ms.FramesAllocated = ms.FramesPooled+ms.FramesAllocated, 0
		mf.FramesPooled, mf.FramesAllocated = mf.FramesPooled+mf.FramesAllocated, 0
		if ms != mf {
			t.Fatalf("%s: rebound executor counted %+v, fresh %+v", label, ms, mf)
		}
	}
	v := diffVariants()
	for pass := 0; pass < 2; pass++ {
		for k := range compiledCorpus {
			if pass == 1 {
				k = len(compiledCorpus) - 1 - k
			}
			tc := compiledCorpus[k]
			for _, variant := range v[:2] {
				if tc.legacyOnly && variant.opts.Mode == core.Freeze {
					continue
				}
				m, err := ir.ParseModule(tc.src)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				opts := variant.opts
				if tc.fuel > 0 {
					opts.Fuel = tc.fuel
				}
				check(tc.name+"/"+variant.name, m.Funcs[len(m.Funcs)-1], opts)
			}
		}
	}
}

// TestValueAndTypeSizes pins the layout the per-candidate allocation
// budget rests on: an eight-byte ir.Type keeps a runtime value at 32
// bytes and an instruction within the 128-byte size class.
func TestValueAndTypeSizes(t *testing.T) {
	if s := unsafe.Sizeof(ir.Type{}); s != 8 {
		t.Errorf("ir.Type is %d bytes, want 8", s)
	}
	if s := unsafe.Sizeof(core.Value{}); s != 32 {
		t.Errorf("core.Value is %d bytes, want 32", s)
	}
	if s := unsafe.Sizeof(ir.Instr{}); s > 128 {
		t.Errorf("ir.Instr is %d bytes, want at most 128", s)
	}
}
