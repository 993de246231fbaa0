package refine

import (
	"sync"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
)

// reusePairs are checks of different shapes — straight-line, a loop
// the cycle detector proves divergent, a vector, an undef-resolving
// legacy pair — so consecutive checks bind pooled executors to
// programs of different frame sizes and engine state.
var reusePairs = []struct {
	src, tgt string
	legacy   bool
}{
	{src: "define i1 @f(i2 %a, i2 %b) {\nentry:\n  %add = add nsw i2 %a, %b\n  %cmp = icmp sgt i2 %add, %a\n  ret i1 %cmp\n}",
		tgt: "define i1 @f(i2 %a, i2 %b) {\nentry:\n  %cmp = icmp sgt i2 %b, 0\n  ret i1 %cmp\n}"},
	{src: "define i2 @f(i2 %a) {\nentry:\n  %x = udiv i2 %a, %a\n  ret i2 %x\n}",
		tgt: "define i2 @f(i2 %a) {\nentry:\n  ret i2 1\n}"},
	{src: "define i2 @f(i1 %c) {\nentry:\n  br label %loop\nloop:\n  %i = phi i2 [ 0, %entry ], [ %j, %loop ]\n  %j = add i2 %i, 1\n  br i1 %c, label %loop, label %exit\nexit:\n  ret i2 %j\n}",
		tgt: "define i2 @f(i1 %c) {\nentry:\n  br i1 %c, label %spin, label %exit\nspin:\n  br label %spin\nexit:\n  ret i2 1\n}"},
	{src: "define <2 x i1> @f(<2 x i1> %v) {\nentry:\n  %x = xor <2 x i1> %v, <i1 1, i1 1>\n  ret <2 x i1> %x\n}",
		tgt: "define <2 x i1> @f(<2 x i1> %v) {\nentry:\n  %x = xor <2 x i1> %v, <i1 1, i1 0>\n  ret <2 x i1> %x\n}"},
	{src: "define i2 @f(i2 %a) {\nentry:\n  %x = add i2 %a, undef\n  ret i2 %x\n}",
		tgt: "define i2 @f(i2 %a) {\nentry:\n  ret i2 undef\n}", legacy: true},
}

func reuseConfig(legacy bool) Config {
	opts := core.FreezeOptions()
	if legacy {
		opts = core.LegacyOptions(core.BranchPoisonNondet)
	}
	return DefaultConfig(opts, opts)
}

// TestCompiledCheckReusesExecutor: repeating a memo-free Check of one
// fixed pair allocates what compiling its two sides allocates plus the
// check's three input vectors, and nothing per side: the executor, its
// depth-0 frame and its lane arena come back from the pool.
func TestCompiledCheckReusesExecutor(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops values under the race detector")
	}
	p := reusePairs[0]
	src, tgt := ir.MustParseFunc(p.src), ir.MustParseFunc(p.tgt)
	cfg := reuseConfig(false)
	cfg.Oracle = core.NewEnumOracle(cfg.MaxChoices, cfg.MaxFanout)
	opts := cfg.SrcOpts
	opts.Fuel = cfg.Fuel
	compiles := testing.AllocsPerRun(200, func() {
		core.Compile(src, opts)
		core.Compile(tgt, opts)
	})
	var r Result
	checks := testing.AllocsPerRun(200, func() { r = Check(src, tgt, cfg) })
	if r.Status != Verified {
		t.Fatalf("check: %s", r)
	}
	// cands, idx and args.
	const perCheck = 3
	if checks > compiles+perCheck {
		t.Errorf("a check allocates %.0f times, its two compiles %.0f: want at most %d more", checks, compiles, perCheck)
	}
}

// TestCompiledCheckPoolSharedAcrossGoroutines: goroutines checking
// different pairs at once draw executors from one pool, each bound in
// turn to programs of every shape above; every verdict matches the
// serial one. Under -race this is the check that a pooled executor is
// never shared by two checks.
func TestCompiledCheckPoolSharedAcrossGoroutines(t *testing.T) {
	check := func(i int) string {
		p := reusePairs[i]
		return Check(ir.MustParseFunc(p.src), ir.MustParseFunc(p.tgt), reuseConfig(p.legacy)).String()
	}
	want := make([]string, len(reusePairs))
	for i := range reusePairs {
		want[i] = check(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(reusePairs)
				if got := check(i); got != want[i] {
					t.Errorf("goroutine %d pair %d: %s, want %s", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
