package passes_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tameir/internal/bench"
	"tameir/internal/ir"
	"tameir/internal/minc"
	"tameir/internal/optfuzz"
	"tameir/internal/passes"
	"tameir/internal/telemetry"
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
// no change, rather than the round cap), the function is a true
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

// probe is a pass that changes nothing: it queries every analysis the
// manager caches, in dependency order, and logs the ones the manager
// computed rather than served from its cache.
type probe struct{ log *[]string }

func (probe) Name() string { return "probe" }

func (p probe) Run(_ *ir.Func, _ *passes.Config, am *passes.AnalysisManager) bool {
	var got []string
	for _, a := range []struct {
		name  string
		query func()
	}{
		{"preds", func() { am.Preds() }},
		{"domtree", func() { am.DomTree() }},
		{"loopinfo", func() { am.LoopInfo() }},
		{"poison", func() { am.Poison() }},
	} {
		before := am.Stats().Computes
		a.query()
		if am.Stats().Computes != before {
			got = append(got, a.name)
		}
	}
	*p.log = append(*p.log, strings.Join(got, ","))
	return false
}

// TestPreservedAnalysesInvalidation: the one-bit rule, on a function
// with a loop and a freeze. After a changing step of a pass that
// preserves the CFG (instsimplify), the predecessor map, dominator tree
// and loop info are served from the cache and the poison facts are
// recomputed; after a changing step of one that does not (simplifycfg),
// all four are recomputed; after an unchanged step, nothing is. Under
// -verify-each, CheckInvariants audits every step's cache too.
func TestPreservedAnalysesInvalidation(t *testing.T) {
	const src = `define i8 @f(i8 %n) {
entry:
  %fn = freeze i8 %n
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %latch ]
  %c = icmp ult i8 %i, %fn
  br i1 %c, label %body, label %exit
body:
  %z = add i8 %i, 0
  %i1 = add i8 %z, 1
  br label %latch
latch:
  br label %head
exit:
  ret i8 %i
}`
	for _, verify := range []bool{false, true} {
		var log []string
		p := probe{&log}
		pm := &passes.PassManager{Passes: []passes.Pass{
			p, passes.InstSimplify{}, p, passes.SimplifyCFG{}, p, passes.InstSimplify{}, p,
		}}
		cfg := passes.DefaultFreezeConfig()
		cfg.VerifyEach = verify
		f := ir.MustParseFunc(src)
		if _, fired := pm.RunFuncChanged(f, cfg); !slices.Equal(fired, []string{"instsimplify", "simplifycfg"}) {
			t.Fatalf("fired %v, want instsimplify (the add of zero) and simplifycfg (the latch):\n%s", fired, f)
		}
		want := []string{
			"preds,domtree,loopinfo,poison", // first queries
			"poison",                        // instsimplify changed f and preserves the CFG
			"preds,domtree,loopinfo,poison", // simplifycfg changed f and its CFG
			"",                              // instsimplify changed nothing
		}
		if len(log) < len(want) || !slices.Equal(log[:len(want)], want) {
			t.Fatalf("verify-each %v: probes recomputed %q, want %q", verify, log, want)
		}
		for i, got := range log[len(want):] {
			if got != "" {
				t.Errorf("verify-each %v: probe %d after the first round recomputed %q", verify, len(want)+i, got)
			}
		}
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

// TestStatsRegistrySeries: the collector renders the pass manager's
// series with their names, kinds and classes: per pass name its runs,
// changes and instructions removed, and nine totals that are present
// even at zero (verify_each_* with VerifyEach off). Pass time is not
// among them: it is the pass spans'.
func TestStatsRegistrySeries(t *testing.T) {
	pm := passes.O2().Instrument()
	for _, f := range corpus(t, 2, 200) {
		pm.RunFunc(f, passes.DefaultFreezeConfig())
	}
	want := map[string]string{}
	for _, n := range []string{
		"opt_funcs_total", "opt_fixpoint_iters_total", "opt_converged_total",
		"analysis_computes_total", "analysis_hits_total", "analysis_poison_queries_total",
		"verify_each_checks_total", "verify_each_failures_total", "passes_freeze_elim_removed_total",
	} {
		want[n] = "counter/deterministic"
	}
	for _, p := range passes.O2().Passes {
		want[telemetry.L("pass_runs_total", "pass", p.Name())] = "counter/deterministic"
		want[telemetry.L("pass_changed_total", "pass", p.Name())] = "counter/deterministic"
		want[telemetry.L("pass_instrs_removed", "pass", p.Name())] = "gauge/deterministic"
	}
	got := map[string]string{}
	values := map[string]int64{}
	for _, x := range pm.Stats.Registry().Snapshot().Samples {
		got[x.Name] = x.Kind + "/" + x.Class
		values[x.Name] = x.Value
	}
	if !maps.Equal(got, want) {
		t.Errorf("registry series:\n got %v\nwant %v", got, want)
	}
	if values["verify_each_checks_total"] != 0 || values["verify_each_failures_total"] != 0 {
		t.Errorf("verify-each counts %d and %d without VerifyEach, want 0 and 0",
			values["verify_each_checks_total"], values["verify_each_failures_total"])
	}
	if values["opt_funcs_total"] != 200 || values[telemetry.L("pass_runs_total", "pass", "gvn")] == 0 {
		t.Errorf("opt_funcs_total %d (want 200), gvn runs %d (want > 0)",
			values["opt_funcs_total"], values[telemetry.L("pass_runs_total", "pass", "gvn")])
	}
}

// TestPassWallIsSpanTime: a pass step's wall time is its pass span's.
// Untraced, every pass's Wall is zero; traced on a registry R, each
// pass's Wall is exactly the sum of span_wall_ns{span="pass/<name>"} in
// R, which counts one span per run.
func TestPassWallIsSpanTime(t *testing.T) {
	funcs := corpus(t, 2, 200)
	cfg := passes.DefaultFreezeConfig()
	cfg.VerifyEach = true

	untraced := passes.O2().Instrument()
	for _, f := range funcs {
		untraced.RunFunc(ir.CloneFunc(f), cfg)
	}
	for _, ps := range untraced.Stats.PassStats() {
		if ps.Wall != 0 {
			t.Errorf("untraced %s: Wall %v, want 0", ps.Name, ps.Wall)
		}
	}

	reg := telemetry.NewRegistry()
	traced := passes.O2().Instrument()
	traced.Trace = telemetry.NewScope(reg, "pass")
	for _, f := range funcs {
		traced.RunFunc(ir.CloneFunc(f), cfg)
	}
	spans := map[string]telemetry.Sample{}
	for _, x := range reg.Snapshot().Samples {
		spans[x.Name] = x
	}
	var total time.Duration
	for _, ps := range traced.Stats.PassStats() {
		sp := spans[telemetry.L("span_wall_ns", "span", "pass/"+ps.Name)]
		if ps.Wall != time.Duration(sp.Sum) || sp.Count != uint64(ps.Runs) {
			t.Errorf("%s: Wall %v over %d runs, span_wall_ns sums %v over %d spans",
				ps.Name, ps.Wall, ps.Runs, time.Duration(sp.Sum), sp.Count)
		}
		total += ps.Wall
	}
	if total == 0 {
		t.Error("traced passes took no time")
	}
}

// fullRounds is the fixpoint loop with neither the early exit nor the
// analysis cache: every round runs the whole pipeline, so the round
// after a change confirms the fixpoint by running every pass again,
// and every pass step runs alone in a fresh one-pass manager, so each
// pass recomputes what it queries. computes sums what those managers
// computed. RunFuncChanged is held to it.
func fullRounds(pm *passes.PassManager, f *ir.Func, cfg *passes.Config) (fired []string, rounds int, converged bool, computes uint64) {
	mod := &ir.Module{Funcs: []*ir.Func{f}}
	for !converged && rounds < 3 { // the pass manager's round bound
		rounds++
		converged = true
		for _, p := range pm.Passes {
			one := (&passes.PassManager{Passes: []passes.Pass{p}}).Instrument()
			if one.RunOnce(mod, cfg) {
				converged = false
				if !slices.Contains(fired, p.Name()) {
					fired = append(fired, p.Name())
				}
			}
			computes += one.Stats.Analysis().Computes
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
// reach the round cap.
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
	// queries and their registry bits: a change to either moves these
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
	t.Logf("%d MinC functions, %d reach the round cap", funcs, capped)
	if capped == 0 {
		t.Errorf("none of %d MinC functions reached the round cap; the test no longer covers a capped fixpoint", funcs)
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
