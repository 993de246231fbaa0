package core_test

// State merging (merge.go) lets the compiled engine end a run at a
// state an earlier choice path of the same enumeration reached. These
// tests hold refine.Check on the compiled engine, where the
// enumeration loop turns merging on, to the tree-walking interpreter,
// which never merges: the verdict, every behaviour set and the number
// of choice paths must come out identical.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
	"tameir/internal/passes"
	"tameir/internal/refine"
)

// undefSweep makes 4,096 choice paths on two undef inputs: five undef
// reads of %p0 and one of %p1, four values each. The registers hold
// only four distinct states after each add.
const undefSweep = `define i2 @f(i2 %p0, i2 %p1) {
entry:
  %v0 = add i2 %p0, %p0
  %v1 = add i2 %p0, %p0
  %v2 = add i2 %p0, %p1
  ret i2 %v2
}`

// mergeRun is everything a Check exposes about its enumeration.
type mergeRun struct {
	result string
	sets   []string
	paths  uint64
	engine core.EngineMetrics
}

func checkOn(src, tgt *ir.Func, cfg refine.Config, interpret bool) mergeRun {
	cfg.Interpret = interpret
	var run mergeRun
	var m refine.CheckMetrics
	cfg.Metrics = &m
	cfg.BehaviorHook = func(b refine.BehaviorSet) { run.sets = append(run.sets, b.String()) }
	run.result = refine.Check(src, tgt, cfg).String()
	run.paths, run.engine = m.Execs, m.Engine
	return run
}

// mergeCompare checks src against tgt under cfg on the interpreter and
// on the compiled engine, fails on any difference, and returns the
// compiled engine's counters.
func mergeCompare(t *testing.T, label string, src, tgt *ir.Func, cfg refine.Config) core.EngineMetrics {
	t.Helper()
	ref := checkOn(src, tgt, cfg, true)
	got := checkOn(src, tgt, cfg, false)
	if got.result != ref.result {
		t.Errorf("%s: result %q, interpreter %q", label, got.result, ref.result)
	}
	if len(got.sets) != len(ref.sets) {
		t.Errorf("%s: %d behaviour sets, interpreter %d", label, len(got.sets), len(ref.sets))
	} else {
		for j := range got.sets {
			if got.sets[j] != ref.sets[j] {
				t.Errorf("%s: behaviour set %d is %s, interpreter %s", label, j, got.sets[j], ref.sets[j])
				break
			}
		}
	}
	if got.paths != ref.paths {
		t.Errorf("%s: %d choice paths, interpreter %d", label, got.paths, ref.paths)
	}
	if t.Failed() {
		t.Logf("%s:\n%s", label, src)
	}
	return got.engine
}

func legacyOpts() core.Options { return core.LegacyOptions(core.BranchPoisonNondet) }

// twoInstrSample draws a seeded sample of the 2-instruction i2 space
// (2.6 M candidates with undef, several seconds to enumerate): the
// generator's opcodes in a seeded order, four per round, and about
// perRound candidates drawn uniformly from each round's space.
func twoInstrSample(undef bool, perRound int) []*ir.Func {
	rng := rand.New(rand.NewSource(2017))
	ops := []ir.Op{
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem,
		ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpICmp, ir.OpSelect, ir.OpFreeze,
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	var fns []*ir.Func
	for r := 0; r+4 <= len(ops); r += 4 {
		gen := optfuzz.DefaultConfig(2)
		gen.AllowUndef = undef
		gen.AllowPoison = true
		gen.Opcodes = ops[r : r+4]
		total := 0
		for _, c := range optfuzz.ShardCapacities(gen, 1<<30) {
			total += c
		}
		optfuzz.Exhaustive(gen, func(f *ir.Func) bool {
			if rng.Intn(total) < perRound {
				fns = append(fns, ir.CloneFunc(f))
			}
			return true
		})
	}
	return fns
}

// TestStateMergingIsExact runs the comparison over straight-line
// candidates, candidates against their InstCombine output, the loop
// corpus, CFG mutants, the bounds a merged subtree can cross, and a
// case for each rule of the key and of where merging may happen, and
// requires that merging happened at all: the legacy cases' merge exits
// must sum to more than zero.
func TestStateMergingIsExact(t *testing.T) {
	var legacyExits uint64
	count := func(opts core.Options, m core.EngineMetrics) {
		if opts.Mode == core.Legacy {
			legacyExits += m.MergeExits
		}
	}

	t.Run("straightline-i2", func(t *testing.T) {
		// A seeded sample of the 2-instruction i2 space in both
		// dialects, each candidate checked against the next one.
		for _, opts := range []core.Options{legacyOpts(), core.FreezeOptions()} {
			fns := twoInstrSample(opts.Mode == core.Legacy, 100)
			if len(fns) < 200 {
				t.Fatalf("%s: sampled only %d candidates", opts.Mode, len(fns))
			}
			cfg := refine.DefaultConfig(opts, opts)
			for i := range fns {
				src, tgt := fns[i], fns[(i+1)%len(fns)]
				count(opts, mergeCompare(t, fmt.Sprintf("%s[%d]", opts.Mode, i), src, tgt, cfg))
			}
		}
	})

	t.Run("instcombine-i2", func(t *testing.T) {
		// The pairs a §6 campaign checks: the same kind of sample, each
		// candidate against its own InstCombine output, in both
		// dialects. Legacy runs the historical rewrites, so some of its
		// pairs are refuted and their counterexamples are compared too.
		refuted := 0
		for _, d := range []struct {
			opts core.Options
			pcfg *passes.Config
		}{
			{legacyOpts(), passes.DefaultLegacyConfig()},
			{core.FreezeOptions(), passes.DefaultFreezeConfig()},
		} {
			cfg := refine.DefaultConfig(d.opts, d.opts)
			for i, src := range twoInstrSample(d.opts.Mode == core.Legacy, 100) {
				tgt := ir.CloneFunc(src)
				passes.RunPass(passes.InstCombine{}, tgt, d.pcfg)
				count(d.opts, mergeCompare(t, fmt.Sprintf("%s-instcombine[%d]", d.opts.Mode, i), src, tgt, cfg))
				if refine.Check(src, tgt, cfg).Status == refine.Refuted {
					refuted++
				}
			}
		}
		if refuted == 0 {
			t.Error("no pair refuted; the sample no longer compares a counterexample")
		}
	})

	t.Run("corpus", func(t *testing.T) {
		for _, tc := range compiledCorpus {
			m := ir.MustParseModule(tc.src)
			f := m.Funcs[len(m.Funcs)-1]
			for _, v := range diffVariants() {
				if tc.legacyOnly && v.opts.Mode == core.Freeze {
					continue
				}
				cfg := refine.DefaultConfig(v.opts, v.opts)
				if tc.fuel > 0 {
					cfg.Fuel = tc.fuel
				}
				count(v.opts, mergeCompare(t, tc.name+"/"+v.name, f, f, cfg))
			}
		}
	})

	t.Run("mutant-cfg", func(t *testing.T) {
		// Fed as the lockstep's mutant-cfg subtest feeds them: reduced
		// fuel, and fewer oracle paths per input for the legacy ones,
		// whose undef loops multiply them, so MaxExecs is crossed too.
		for _, d := range []struct {
			mode     ir.VerifyMode
			opts     core.Options
			maxExecs int
		}{
			{ir.VerifyFreeze, core.FreezeOptions(), 1 << 14},
			{ir.VerifyLegacy, legacyOpts(), 256},
		} {
			cfg := refine.DefaultConfig(d.opts, d.opts)
			cfg.Fuel = 200
			cfg.MaxExecs = d.maxExecs
			for i, fn := range mutantCFGs(d.mode, 40) {
				count(d.opts, mergeCompare(t, fmt.Sprintf("mutant-%s[%d]", d.opts.Mode, i), fn, fn, cfg))
			}
		}
	})

	t.Run("bounds", func(t *testing.T) {
		fn := ir.MustParseFunc(undefSweep)
		// 100 paths end inside a merged subtree of the 4,096 (see
		// TestMergingCollapsesUndefSweep): Incomplete, with the
		// interpreter's partial sets.
		cfg := refine.DefaultConfig(legacyOpts(), legacyOpts())
		cfg.MaxExecs = 100
		count(legacyOpts(), mergeCompare(t, "max-execs", fn, fn, cfg))
		// Six choices against a limit of four: paths overflow it.
		cfg = refine.DefaultConfig(legacyOpts(), legacyOpts())
		cfg.MaxChoices = 4
		count(legacyOpts(), mergeCompare(t, "max-choices", fn, fn, cfg))
	})

	t.Run("fuel", func(t *testing.T) {
		// The paths through %long reach the choice in %join with one
		// step less fuel than those through %short, in the same
		// registers: at a fuel of 5 they time out before the ret, and
		// only the fuel in the key keeps the %short paths from merging
		// into theirs.
		fn := ir.MustParseFunc(`define i2 @f(i2 %p) {
entry:
  %c = icmp eq i2 %p, 0
  br i1 %c, label %long, label %short
long:
  %x = add i2 1, 1
  br label %join
short:
  br label %join
join:
  %u = add i2 %p, 0
  ret i2 %u
}`)
		cfg := refine.DefaultConfig(legacyOpts(), legacyOpts())
		cfg.Fuel = 5
		count(legacyOpts(), mergeCompare(t, "fuel", fn, fn, cfg))
	})

	t.Run("callee-chooses", func(t *testing.T) {
		// @g chooses inside the call, one frame down, where merging
		// would miss @f's %u and skip the paths that return 1, 2 and 3;
		// back in @f, the state before the ret may merge.
		m := ir.MustParseModule(`define i2 @g(i2 %x) {
entry:
  %a = add i2 %x, 0
  %b = add i2 %a, 0
  ret i2 %b
}
define i2 @f(i2 %p) {
entry:
  %u = add i2 %p, 0
  %r = call i2 @g(i2 %p)
  ret i2 %u
}`)
		fn := m.Funcs[1]
		cfg := refine.DefaultConfig(legacyOpts(), legacyOpts())
		em := mergeCompare(t, "callee-chooses", fn, fn, cfg)
		if em.MergeExits == 0 {
			t.Error("no merge exits; want some after the call returns")
		}
		count(legacyOpts(), em)
	})

	t.Run("never-merges", func(t *testing.T) {
		// Memory the key does not hold, and a run traced step by step:
		// every path runs to its end.
		store := ir.MustParseFunc(`define i2 @f(i2 %p) {
entry:
  %a = alloca i2, i32 1
  br label %loop
loop:
  %i = phi i2 [ %p, %entry ], [ %i1, %loop ]
  store i2 %i, ptr %a
  %i1 = add i2 %i, %p
  %c = icmp eq i2 %i1, 0
  br i1 %c, label %done, label %loop
done:
  ret i2 %i
}`)
		traced := legacyOpts()
		traced.EmitTrace = true
		for _, tc := range []struct {
			name string
			fn   *ir.Func
			opts core.Options
			fuel int
		}{
			{"storing-loop", store, legacyOpts(), 60},
			{"emit-trace", ir.MustParseFunc(undefSweep), traced, 0},
		} {
			cfg := refine.DefaultConfig(tc.opts, tc.opts)
			if tc.fuel > 0 {
				cfg.Fuel = tc.fuel
			}
			if m := mergeCompare(t, tc.name, tc.fn, tc.fn, cfg); m.MergeExits != 0 {
				t.Errorf("%s: %d merge exits; want none", tc.name, m.MergeExits)
			}
		}
	})

	if legacyExits == 0 {
		t.Fatal("no merge exits over the legacy cases; merging never happened")
	}
}

// TestMergingCollapsesUndefSweep runs the 4,096 paths of undefSweep on
// two undef inputs through an enumeration with merging on: the compiled
// engine must cover every path in a few dozen runs, and the run that
// takes the path count past 100 (the bound TestStateMergingIsExact
// sets) must be a merged one.
func TestMergingCollapsesUndefSweep(t *testing.T) {
	fn := ir.MustParseFunc(undefSweep)
	args := []core.Value{core.VUndef(ir.I2), core.VUndef(ir.I2)}
	ex := core.NewExecutor(core.Compile(fn, legacyOpts()))
	o := core.NewEnumOracle(16, 1<<8)
	o.EnableMerging()
	paths, crossing := 0, 0
	for {
		o.Reset()
		out := ex.Run(args, o)
		if out.Kind != core.OutMerged && o.LastPaths() != 1 {
			t.Fatalf("a %s run stands for %d paths", out, o.LastPaths())
		}
		if paths <= 100 && paths+o.LastPaths() > 100 {
			crossing = o.LastPaths()
		}
		paths += o.LastPaths()
		if !o.Next() {
			break
		}
	}
	m := ex.Metrics()
	if paths != 4096 {
		t.Errorf("%d choice paths, want 4096", paths)
	}
	if m.Execs > 64 || m.MergeExits == 0 {
		t.Errorf("%d runs, %d merge exits; want at most 64 runs, most of them merged", m.Execs, m.MergeExits)
	}
	if crossing < 2 {
		t.Errorf("the run crossing 100 paths stands for %d; want a merged subtree", crossing)
	}
}

// TestMergingSharedProgram enumerates one compiled Program from several
// goroutines at once, so its lazily computed liveness is reached
// concurrently (run under -race in CI): every goroutine must cover the
// 4,096 paths of undefSweep in the runs a lone one takes.
func TestMergingSharedProgram(t *testing.T) {
	fn := ir.MustParseFunc(undefSweep)
	args := []core.Value{core.VUndef(ir.I2), core.VUndef(ir.I2)}
	sweep := func(prog *core.Program) (paths int, runs uint64) {
		ex := core.NewExecutor(prog)
		o := core.NewEnumOracle(16, 1<<8)
		o.EnableMerging()
		for {
			o.Reset()
			ex.Run(args, o)
			paths += o.LastPaths()
			if !o.Next() {
				return paths, ex.Metrics().Execs
			}
		}
	}
	_, want := sweep(core.Compile(fn, legacyOpts()))
	shared := core.Compile(fn, legacyOpts()) // its liveness not yet computed
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if paths, runs := sweep(shared); paths != 4096 || runs != want {
				errs <- fmt.Sprintf("worker %d: %d paths in %d runs, want 4096 in %d", w, paths, runs, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
