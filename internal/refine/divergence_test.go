package refine

import (
	"math/rand"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
)

// An i2 counter whose exit test can never hold: every concrete input
// loops forever through four states, and a poison input branches on
// poison (UB under freeze, a choice per iteration under legacy).
const spinI2 = `define i2 @f(i2 %a) {
entry:
  br label %loop
loop:
  %i = phi i2 [ %a, %entry ], [ %i1, %loop ]
  %i1 = add i2 %i, 1
  %c = icmp ugt i2 %i1, 3
  br i1 %c, label %done, label %loop
done:
  ret i2 %i1
}`

// The same loop stepping by xor, so its cycle is two states long.
const spinI2Xor = `define i2 @f(i2 %a) {
entry:
  br label %loop
loop:
  %i = phi i2 [ %a, %entry ], [ %i1, %loop ]
  %i1 = xor i2 %i, 1
  %c = icmp ugt i2 %i1, 3
  br i1 %c, label %done, label %loop
done:
  ret i2 %i1
}`

// divergenceRun is everything a Check exposes about its executions.
type divergenceRun struct {
	result string
	sets   []string
	execs  uint64
	engine core.EngineMetrics
}

func runDivergence(src, tgt *ir.Func, opts core.Options, interpret bool) divergenceRun {
	cfg := DefaultConfig(opts, opts)
	cfg.Interpret = interpret
	var run divergenceRun
	var m CheckMetrics
	cfg.Metrics = &m
	cfg.BehaviorHook = func(b BehaviorSet) { run.sets = append(run.sets, b.String()) }
	run.result = Check(src, tgt, cfg).String()
	run.execs, run.engine = m.Execs, m.Engine
	return run
}

// TestCycleExitIsExact checks that stopping a provably divergent loop
// early changes nothing a Check reports: the compiled engine must give
// the interpreter's verdict, behaviour sets and execution count (the
// interpreter runs every execution to the fuel limit), while stepping
// far less than the fuel.
func TestCycleExitIsExact(t *testing.T) {
	src, tgt := ir.MustParseFunc(spinI2), ir.MustParseFunc(spinI2Xor)
	for _, sem := range []struct {
		name string
		opts core.Options
	}{
		{"freeze", core.FreezeOptions()},
		{"legacy", core.LegacyOptions(core.BranchPoisonNondet)},
	} {
		ref := runDivergence(src, tgt, sem.opts, true)
		got := runDivergence(src, tgt, sem.opts, false)
		if got.result != ref.result {
			t.Errorf("%s: result %q, interpreter %q", sem.name, got.result, ref.result)
		}
		if len(got.sets) != len(ref.sets) {
			t.Fatalf("%s: %d behaviour sets, interpreter %d", sem.name, len(got.sets), len(ref.sets))
		}
		for j := range got.sets {
			if got.sets[j] != ref.sets[j] {
				t.Errorf("%s: behaviour set %d is %s, interpreter %s", sem.name, j, got.sets[j], ref.sets[j])
			}
		}
		if got.execs != ref.execs {
			t.Errorf("%s: %d executions, interpreter %d", sem.name, got.execs, ref.execs)
		}
		e := got.engine
		if e.CycleExits == 0 || e.FuelExits != 0 {
			t.Errorf("%s: %d cycle exits, %d fuel exits; want some and none", sem.name, e.CycleExits, e.FuelExits)
		}
		fuel := uint64(DefaultConfig(sem.opts, sem.opts).Fuel)
		if e.Execs == 0 || e.Steps/e.Execs > fuel/16 {
			t.Errorf("%s: %d steps over %d executions; want far below the fuel of %d each", sem.name, e.Steps, e.Execs, fuel)
		}
	}
}

// TestCycleExitOnlyWhereExact checks the two cases where a repeated
// register state proves nothing: memory the detector does not
// snapshot, and an oracle whose answers do not depend on its position.
func TestCycleExitOnlyWhereExact(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		// The registers cycle through four states, but the loop stores.
		fn := ir.MustParseFunc(`define i2 @f(i2 %a) {
entry:
  %p = alloca i2, i32 1
  br label %loop
loop:
  %i = phi i2 [ %a, %entry ], [ %i1, %loop ]
  store i2 %i, ptr %p
  %i1 = add i2 %i, 1
  br label %loop
}`)
		opts := core.FreezeOptions()
		fuel := uint64(DefaultConfig(opts, opts).Fuel)
		e := runDivergence(fn, fn, opts, false).engine
		if e.CycleExits != 0 || e.FuelExits != e.Execs || e.Steps != e.Execs*fuel {
			t.Errorf("%d executions, %d steps, %d cycle exits, %d fuel exits; want every execution run to the fuel of %d",
				e.Execs, e.Steps, e.CycleExits, e.FuelExits, fuel)
		}
	})

	t.Run("rand-oracle", func(t *testing.T) {
		// Each iteration freezes poison, one oracle draw; the loop state
		// repeats within a few iterations, which proves nothing when
		// the draws are random.
		fn := ir.MustParseFunc(`define i2 @f(i2 %a) {
entry:
  br label %loop
loop:
  %i = phi i2 [ %a, %entry ], [ %i1, %loop ]
  %x = freeze i2 poison
  %i1 = xor i2 %i, %x
  br label %loop
}`)
		opts := core.FreezeOptions()
		opts.Fuel = 3000
		p := core.Compile(fn, opts)
		src := &countingSource{Source: rand.NewSource(1)}
		out := p.Exec([]core.Value{core.VC(ir.I2, 1)}, &core.RandOracle{Rng: rand.New(src)})
		// Entry takes one step, then three per iteration.
		if want := (opts.Fuel - 1) / 3; out.Kind != core.OutTimeout || src.draws < want {
			t.Errorf("outcome %s after %d oracle draws; want a timeout after %d", out, src.draws, want)
		}
	})
}

// countingSource counts the random draws a RandOracle makes.
type countingSource struct {
	rand.Source
	draws int
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.Source.Int63()
}
