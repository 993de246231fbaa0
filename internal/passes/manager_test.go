package passes_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tameir/internal/analysis"
	"tameir/internal/bench"
	"tameir/internal/ir"
	"tameir/internal/minc"
	"tameir/internal/optfuzz"
	"tameir/internal/passes"
)

// corpus enumerates a bounded slice of the §6 generator space.
func corpus(t *testing.T, numInstrs, maxFuncs int) []*ir.Func {
	t.Helper()
	gen := optfuzz.DefaultConfig(numInstrs)
	gen.AllowUndef = false
	gen.AllowPoison = true
	gen.EnumAttrs = true
	gen.MaxFuncs = maxFuncs
	var out []*ir.Func
	optfuzz.Exhaustive(gen, func(f *ir.Func) bool {
		out = append(out, f)
		return true
	})
	if len(out) == 0 {
		t.Fatal("empty corpus")
	}
	return out
}

// TestO2Fixpoint: when the pipeline reports convergence (a round with
// no change, rather than the MaxIters cap), the function is a true
// fixed point — a second full run changes nothing. A minority of
// candidates legitimately hit the cap (reassociate and instcombine can
// trade canonical forms indefinitely); the cap is exactly what bounds
// them, so the test only insists convergence is the common case.
func TestO2Fixpoint(t *testing.T) {
	cfg := passes.DefaultFreezeConfig()
	cfg.VerifyEach = true
	funcs := corpus(t, 2, 400)
	total := passes.NewStats()
	capped := 0
	for _, f := range funcs {
		pm := passes.O2().Instrument()
		pm.RunFunc(f, cfg)
		if pm.Stats.Converged() == 1 {
			if pm.RunFunc(f, cfg) {
				t.Fatalf("converged function changed on a second O2 run:\n%s", f)
			}
		} else {
			capped++
		}
		total.Merge(pm.Stats)
	}
	if capped*4 > len(funcs) {
		t.Errorf("%d of %d functions hit the iteration cap; convergence should be the common case",
			capped, len(funcs))
	}
	if total.Analysis().Hits == 0 {
		t.Error("analysis cache never hit across the corpus")
	}
}

// TestPreservedAnalysesInvalidation: a CFG-mutating pass (simplifycfg)
// must evict the cached domtree, while a pass that only rewrites
// instructions (instsimplify) must keep it.
func TestPreservedAnalysesInvalidation(t *testing.T) {
	f := ir.MustParseFunc(`define i2 @f(i2 %x) {
entry:
  %a = add i2 %x, 0
  br i1 true, label %t, label %e
t:
  ret i2 %a
e:
  ret i2 0
}`)
	cfg := passes.DefaultFreezeConfig()
	cfg.VerifyEach = true
	am := analysis.NewManager(f)
	am.DomTree()

	if !passes.RunPassWithManager(passes.InstSimplify{}, f, cfg, am) {
		t.Fatal("instsimplify did not fold the add-zero identity")
	}
	if !am.Cached(analysis.Doms) {
		t.Fatal("instsimplify evicted the domtree despite preserving all analyses")
	}

	if !passes.RunPassWithManager(passes.SimplifyCFG{}, f, cfg, am) {
		t.Fatal("simplifycfg did not fold the constant branch")
	}
	if am.Cached(analysis.Doms) || am.Cached(analysis.CFG) {
		t.Fatal("simplifycfg left stale CFG analyses cached")
	}
}

// TestRunFuncChangedAttribution: the fired-pass list names the passes
// that changed the function, in first-fire order, deduplicated.
func TestRunFuncChangedAttribution(t *testing.T) {
	f := ir.MustParseFunc(`define i2 @f(i2 %x) {
entry:
  %a = add i2 %x, 0
  ret i2 %a
}`)
	cfg := passes.DefaultFreezeConfig()
	pm := passes.O2()
	changed, fired := pm.RunFuncChanged(f, cfg)
	if !changed || len(fired) == 0 {
		t.Fatalf("changed=%v fired=%v", changed, fired)
	}
	seen := map[string]bool{}
	for _, n := range fired {
		if seen[n] {
			t.Errorf("pass %q listed twice in %v", n, fired)
		}
		seen[n] = true
	}
	if !seen["instsimplify"] {
		t.Errorf("instsimplify folded the add but is missing from %v", fired)
	}
}

// TestStatsReports: -time-passes and -stats style reports include every
// pipeline pass and the analysis-cache counters.
func TestStatsReports(t *testing.T) {
	cfg := passes.DefaultFreezeConfig()
	pm := passes.O2().Instrument()
	for _, f := range corpus(t, 1, 50) {
		pm.RunFunc(f, cfg)
	}
	var timeRep, statRep strings.Builder
	pm.Stats.ReportTime(&timeRep)
	pm.Stats.Report(&statRep)
	for _, want := range []string{"Pass execution timing", "gvn", "simplifycfg"} {
		if !strings.Contains(timeRep.String(), want) {
			t.Errorf("-time-passes report lacks %q:\n%s", want, timeRep.String())
		}
	}
	for _, want := range []string{"Pass statistics", "analyses computed", "fixpoint iterations"} {
		if !strings.Contains(statRep.String(), want) {
			t.Errorf("-stats report lacks %q:\n%s", want, statRep.String())
		}
	}
}

// TestStatsMerge: merging shard collectors adds counters and keeps
// pipeline order.
func TestStatsMerge(t *testing.T) {
	cfg := passes.DefaultFreezeConfig()
	funcs := corpus(t, 1, 60)

	whole := passes.O2().Instrument()
	for _, f := range funcs {
		whole.RunFunc(ir.CloneFunc(f), cfg)
	}

	a, b := passes.O2().Instrument(), passes.O2().Instrument()
	for i, f := range funcs {
		pm := a
		if i >= len(funcs)/2 {
			pm = b
		}
		pm.RunFunc(ir.CloneFunc(f), cfg)
	}
	merged := passes.NewStats()
	merged.Merge(a.Stats)
	merged.Merge(b.Stats)

	if merged.Funcs() != whole.Stats.Funcs() || merged.FixpointIters() != whole.Stats.FixpointIters() ||
		merged.Converged() != whole.Stats.Converged() || merged.Analysis() != whole.Stats.Analysis() {
		t.Errorf("merged counters funcs=%d iters=%d converged=%d analysis=%+v diverge from whole-run funcs=%d iters=%d converged=%d analysis=%+v",
			merged.Funcs(), merged.FixpointIters(), merged.Converged(), merged.Analysis(),
			whole.Stats.Funcs(), whole.Stats.FixpointIters(), whole.Stats.Converged(), whole.Stats.Analysis())
	}
	ws, ms := whole.Stats.PassStats(), merged.PassStats()
	if len(ws) != len(ms) {
		t.Fatalf("pass count %d vs %d", len(ms), len(ws))
	}
	for i := range ws {
		if ms[i].Name != ws[i].Name || ms[i].Runs != ws[i].Runs ||
			ms[i].Changed != ws[i].Changed || ms[i].InstrsRemoved != ws[i].InstrsRemoved {
			t.Errorf("pass %d: merged %+v vs whole %+v", i, ms[i], ws[i])
		}
	}
}

// fullRounds is the fixpoint loop with neither the early exit nor the
// analysis cache: every round runs the whole pipeline, so the round
// after a change confirms the fixpoint by running every pass again,
// and every pass step gets a fresh analysis manager, so each pass
// recomputes what it queries. computes sums what those managers
// computed. RunFuncChanged is held to it.
func fullRounds(pm *passes.PassManager, f *ir.Func, cfg *passes.Config) (fired []string, rounds int, converged bool, computes uint64) {
	max := pm.MaxIters
	if max == 0 {
		max = 3
	}
	for !converged && rounds < max {
		rounds++
		converged = true
		for _, p := range pm.Passes {
			am := analysis.NewManager(f)
			if passes.RunPassWithManager(p, f, cfg, am) {
				converged = false
				if !slices.Contains(fired, p.Name()) {
					fired = append(fired, p.Name())
				}
			}
			computes += am.Stats().Computes
		}
	}
	return fired, rounds, converged, computes
}

// sampleSpace is a seeded sample of the numInstrs-instruction i2 space
// of gen: from every shard (one per first-instruction template), about
// one candidate in 32 of its first perShard*32, so the sample reaches
// every opcode at the head of the function.
func sampleSpace(gen optfuzz.Config, seed uint64, perShard int) []*ir.Func {
	var out []*ir.Func
	for s := 0; s < optfuzz.NumShards(gen); s++ {
		kept := 0
		var i uint64
		optfuzz.ExhaustiveShard(gen, s, func(f *ir.Func) bool {
			i++
			h := (seed ^ uint64(s)<<32 ^ i) * 0x9e3779b97f4a7c15
			if (h^h>>29)%32 != 0 {
				return true
			}
			out = append(out, f)
			kept++
			return kept < perShard
		})
	}
	return out
}

// TestFixpointEarlyExitMatchesFullRounds: a round that reaches the pass
// after the previous round's last change without a change of its own
// stops there. The passes it skips already ran on that same IR and
// reported no change, and a cached analysis is evicted whenever a pass
// changes what it describes, so the output text, the fired passes, the
// round count and convergence must all equal the uncached full-rounds
// reference: on the first 600 candidates of the 2-instruction §6 space
// under the verify-each battery, on a sample of the 3-instruction space
// in both dialects (the unsound legacy config included) and on every
// MinC benchmark function under both variants, where many functions
// reach MaxIters.
func TestFixpointEarlyExitMatchesFullRounds(t *testing.T) {
	var computes, refComputes uint64
	check := func(label string, got, want *ir.Func, cfg *passes.Config) (capped bool) {
		f := got.String()
		pm := passes.O2().Instrument()
		_, fired := pm.RunFuncChanged(got, cfg)
		refFired, refRounds, refConverged, ref := fullRounds(passes.O2(), want, cfg)
		if got.String() != want.String() || !slices.Equal(fired, refFired) ||
			pm.Stats.FixpointIters() != refRounds || (pm.Stats.Converged() == 1) != refConverged {
			t.Errorf("%s: early exit diverges from full rounds on\n%s\ngot (fired %v, rounds %d, converged %d):\n%s\nwant (fired %v, rounds %d, converged %v):\n%s",
				label, f, fired, pm.Stats.FixpointIters(), pm.Stats.Converged(), got,
				refFired, refRounds, refConverged, want)
		}
		computes += pm.Stats.Analysis().Computes
		refComputes += ref
		return !refConverged
	}

	// What the cache saves on this corpus is fixed by the passes'
	// queries and preserved-sets: a change to either moves these
	// counts, and one that makes the cache recompute as often as the
	// reference shows up here even when the output is right.
	verified := passes.DefaultFreezeConfig()
	verified.VerifyEach = true
	for i, f := range corpus(t, 2, 600) {
		check(fmt.Sprintf("corpus #%d", i), ir.CloneFunc(f), ir.CloneFunc(f), verified)
	}
	if computes != 1800 || refComputes != 13970 {
		t.Errorf("corpus: %d analyses computed with the cache and %d by the reference, want 1800 and 13970",
			computes, refComputes)
	}

	freezeGen := optfuzz.DefaultConfig(3)
	freezeGen.AllowUndef, freezeGen.AllowPoison = false, true
	legacyGen := optfuzz.DefaultConfig(3)
	legacySound := passes.DefaultLegacyConfig()
	legacySound.Unsound = false
	for _, d := range []struct {
		name string
		gen  optfuzz.Config
		cfg  *passes.Config
	}{
		{"freeze", freezeGen, passes.DefaultFreezeConfig()},
		{"legacy", legacyGen, legacySound},
		{"legacy-unsound", legacyGen, passes.DefaultLegacyConfig()},
	} {
		sample := sampleSpace(d.gen, 19, 12)
		for i, f := range sample {
			check(fmt.Sprintf("%s #%d", d.name, i), ir.CloneFunc(f), ir.CloneFunc(f), d.cfg)
		}
		t.Logf("%s: %d sampled candidates", d.name, len(sample))
	}

	funcs, capped := 0, 0
	for _, p := range bench.Programs {
		for _, v := range []bench.Variant{bench.Baseline(), bench.Prototype()} {
			mod, err := minc.CompileString(p.Src, v.MincCfg)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			// Module order, as the -O2 compile runs it: the inliner
			// sees callees the same loop already optimized.
			got, want := ir.CloneModule(mod), ir.CloneModule(mod)
			for i, f := range got.Funcs {
				funcs++
				if check(fmt.Sprintf("%s/%s @%s", p.Name, v.Name, f.Name()), f, want.Funcs[i], v.PassCfg) {
					capped++
				}
			}
		}
	}
	t.Logf("%d MinC functions, %d reach MaxIters", funcs, capped)
	if capped == 0 {
		t.Errorf("none of %d MinC functions reached MaxIters; the test no longer covers a capped fixpoint", funcs)
	}
}

// TestO2ConcurrentMatchesSerial: -O2 run over one candidate stream from
// several goroutines at once, which share the passes' pooled scratch,
// prints exactly what a serial run prints for every candidate.
func TestO2ConcurrentMatchesSerial(t *testing.T) {
	cfg := passes.DefaultFreezeConfig()
	funcs := corpus(t, 3, 1200)
	serial := make([]string, len(funcs))
	pm := passes.O2()
	for i, f := range funcs {
		g := ir.CloneFunc(f)
		pm.RunFunc(g, cfg)
		serial[i] = g.String()
	}

	const workers = 4
	got := make([]string, len(funcs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pm := passes.O2().Instrument()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(funcs) {
					return
				}
				g := ir.CloneFunc(funcs[i])
				pm.RunFunc(g, cfg)
				got[i] = g.String()
			}
		}()
	}
	wg.Wait()
	for i := range funcs {
		if got[i] != serial[i] {
			t.Fatalf("candidate %d: concurrent -O2 printed\n%s\nserial printed\n%s", i, got[i], serial[i])
		}
	}
}

// TestParsePipeline: "o2" and "O2" are the -O2 pipeline run to
// fixpoint; anything else is a comma list of registered names, spaces
// trimmed; an unknown name fails with the available list.
func TestParsePipeline(t *testing.T) {
	names := func(pm *passes.PassManager) []string {
		var out []string
		for _, p := range pm.Passes {
			out = append(out, p.Name())
		}
		return out
	}
	o2 := names(passes.O2())
	for _, tc := range []struct {
		spec     string
		want     []string
		fixpoint bool
		err      string
	}{
		{spec: "o2", want: o2, fixpoint: true},
		{spec: "O2", want: o2, fixpoint: true},
		{spec: "gvn", want: []string{"gvn"}},
		{spec: "gvn,instcombine", want: []string{"gvn", "instcombine"}},
		{spec: " sccp , dce ", want: []string{"sccp", "dce"}},
		{spec: "instcombine,o2", err: `unknown pass "o2"`},
		{spec: "Gvn", err: `unknown pass "Gvn"`},
		{spec: "gvn,bogus", err: `unknown pass "bogus", available: adce`},
		{spec: "", err: `unknown pass ""`},
	} {
		pm, fixpoint, err := passes.ParsePipeline(tc.spec)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ParsePipeline(%q): err %v, want %q", tc.spec, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePipeline(%q): %v", tc.spec, err)
			continue
		}
		if got := names(pm); !slices.Equal(got, tc.want) || fixpoint != tc.fixpoint {
			t.Errorf("ParsePipeline(%q) = %v (fixpoint %v), want %v (fixpoint %v)", tc.spec, got, fixpoint, tc.want, tc.fixpoint)
		}
	}
}
