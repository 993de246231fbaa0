package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"tameir/internal/telemetry/trace"
)

// gateSnapshot is a registry in which every clause of the Makefile's
// tame-metrics gates holds, with the label and histogram shapes the
// tools really export.
func gateSnapshot() *Registry {
	r := NewRegistry()
	det := Deterministic
	for name, v := range map[string]uint64{
		"campaign_funcs_total": 200, "campaign_verified_total": 198, "campaign_refuted_total": 2,
		"check_checks_total": 200, "check_inputs_total": 5000, "check_compiles_total": 218,
		"engine_steps_total": 90000, "engine_execs_closure_total": 7000, "engine_merge_exits_total": 40,
		"engine_cycle_exits_total": 3, "memo_lookups_total": 9000, "pool_tasks_total": 25,
		"opt_funcs_total": 200, "analysis_computes_total": 800, "analysis_poison_queries_total": 13,
		"passes_freeze_elim_removed_total": 2, "verify_each_checks_total": 4000, "verify_each_failures_total": 0,
		"poison_oracle_funcs_total": 60, "poison_oracle_claims_total": 90, "poison_oracle_execs_total": 800,
		"poison_oracle_violations_total": 0, "reduce_steps_total": 9, "reduce_findings_total": 4,
		"watchdog_stalls_total": 0, "trace_events_total": 65536, "campaign_epochs_total": 3,
		L("pass_runs_total", "pass", "gvn"): 70, L("pass_runs_total", "pass", "dce"): 100,
	} {
		r.Counter(name, det, "").Add(v)
	}
	r.Gauge("corpus_size", det, "").Set(120)
	r.Gauge("coverage_keys", det, "").Set(310)
	r.Histogram("check_set_size", det, "").Observe(3)
	r.Histogram(L("span_wall_ns", "span", "campaign/run"), Scheduling, "").Observe(1 << 20)
	return r
}

// seriesOf renders a registry in one exposition format and reads it
// back the way tame-metrics does.
func seriesOf(t *testing.T, r *Registry, json bool) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	snap := r.Snapshot()
	write := snap.WriteText
	if json {
		write = snap.WriteJSON
	}
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	series, err := ParseSeries(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// set gives every sample of a series (its labelled children included)
// the value v; drop deletes the series with its histogram children.
func set(name string, v int64) func(map[string]int64) {
	return func(s map[string]int64) {
		for k := range s {
			if k == name || strings.HasPrefix(k, name+"{") {
				s[k] = v
			}
		}
	}
}

func drop(name string) func(map[string]int64) {
	return func(s map[string]int64) {
		for k := range s {
			if k == name || strings.HasPrefix(k, name+"{") || strings.HasPrefix(k, name+"_") {
				delete(s, k)
			}
		}
	}
}

// TestGateClausesOnSnapshots runs every clause the Makefile asserts
// with tame-metrics against a snapshot where it holds and one where it
// fails, in both exposition formats. The negative controls
// (verify_each_failures_total>0) are the same clauses read the other
// way round.
func TestGateClausesOnSnapshots(t *testing.T) {
	presence := []string{
		"campaign_funcs_total", "campaign_verified_total", "check_checks_total", "check_inputs_total",
		"check_set_size", "engine_steps_total", "memo_lookups_total", "pool_tasks_total",
		"pass_runs_total", "opt_funcs_total", "analysis_computes_total", "span_wall_ns",
	}
	positive := []string{
		"engine_execs_closure_total", "engine_merge_exits_total", "verify_each_checks_total",
		"campaign_refuted_total", "analysis_poison_queries_total", "passes_freeze_elim_removed_total",
		"poison_oracle_funcs_total", "poison_oracle_claims_total", "poison_oracle_execs_total",
		"campaign_funcs_total", "campaign_epochs_total", "corpus_size", "coverage_keys",
		"reduce_steps_total", "reduce_findings_total", "engine_cycle_exits_total", "trace_events_total",
	}
	zero := []string{"verify_each_failures_total", "poison_oracle_violations_total", "watchdog_stalls_total"}

	type row struct {
		clause string
		breaks []func(map[string]int64)
	}
	var rows []row
	for _, n := range presence {
		rows = append(rows, row{n, []func(map[string]int64){drop(n)}})
	}
	for _, n := range positive {
		rows = append(rows, row{n + ">0", []func(map[string]int64){set(n, 0), drop(n)}})
	}
	for _, n := range zero {
		// An absent counter must fail "=0": it is never read as 0.
		rows = append(rows, row{n + "=0", []func(map[string]int64){set(n, 1), drop(n)}})
	}
	rows = append(rows, row{"check_compiles_total/check_checks_total<=1.5", []func(map[string]int64){
		set("check_compiles_total", 400), set("check_checks_total", 0), drop("check_compiles_total"),
	}})

	reg := gateSnapshot()
	for _, json := range []bool{false, true} {
		for _, r := range rows {
			if err := CheckSeries(r.clause, seriesOf(t, reg, json)); err != nil {
				t.Errorf("json=%v: %s should hold: %v", json, r.clause, err)
			}
			for i, brk := range r.breaks {
				s := seriesOf(t, reg, json)
				brk(s)
				err := CheckSeries(r.clause, s)
				if err == nil || !strings.Contains(err.Error(), r.clause) {
					t.Errorf("json=%v: %s should fail after break %d, got %v", json, r.clause, i, err)
				}
			}
		}
	}
}

// TestGateClausesOnTraces does the same for make ci-trace's tame-trace
// clauses, the negative control instants(finding)==0 among them.
func TestGateClausesOnTraces(t *testing.T) {
	healthy := func() []trace.Event {
		return []trace.Event{
			{Name: "campaign/s0", Phase: trace.PhaseComplete, Dur: 50},
			{Name: "check/compile", Phase: trace.PhaseComplete, Dur: 5},
			{Name: "pass/gvn", Phase: trace.PhaseComplete, Dur: 3},
			{Name: "finding", Phase: trace.PhaseInstant, TS: 1},
			{Name: "finding", Phase: trace.PhaseInstant, TS: 2},
			{Name: "findings", Phase: trace.PhaseCounter, TS: 3, Value: 2},
		}
	}
	without := func(prefix string) []trace.Event {
		var out []trace.Event
		for _, ev := range healthy() {
			if !strings.HasPrefix(ev.Name, prefix) {
				out = append(out, ev)
			}
		}
		return out
	}
	extraFinding := append(healthy(), trace.Event{Name: "finding", Phase: trace.PhaseInstant, TS: 4})
	stall := append(healthy(), trace.Event{Name: "watchdog_stall", Phase: trace.PhaseInstant, TS: 5})
	noCounter := healthy()[:5]
	for _, r := range []struct {
		clause string
		holds  []trace.Event
		fails  [][]trace.Event
	}{
		{"spans(campaign/s)>0", healthy(), [][]trace.Event{without("campaign/")}},
		{"spans(check/)>0", healthy(), [][]trace.Event{without("check/")}},
		{"spans(pass/)>0", healthy(), [][]trace.Event{without("pass/")}},
		{"instants(finding)==counter(findings)", healthy(), [][]trace.Event{extraFinding, noCounter}},
		{"instants(finding)>0", healthy(), [][]trace.Event{without("finding")}},
		{"instants(watchdog_stall)==0", healthy(), [][]trace.Event{stall}},
		{"instants(finding)==0", without("finding"), [][]trace.Event{healthy()}},
	} {
		if err := CheckTrace(r.clause, r.holds); err != nil {
			t.Errorf("%s should hold: %v", r.clause, err)
		}
		for i, evs := range r.fails {
			if err := CheckTrace(r.clause, evs); err == nil || !strings.Contains(err.Error(), r.clause) {
				t.Errorf("%s should fail on trace %d, got %v", r.clause, i, err)
			}
		}
	}
}

// TestAssertGrammar pins the forms the gates do not use.
func TestAssertGrammar(t *testing.T) {
	series := map[string]int64{
		"a": 3, "b": 2, "zero": 0,
		`l{k="x"}`: 4, `l{k="y"}`: 5,
		"h_bucket{le=\"1\"}": 1, "h_sum": 1, "h_count": 1,
	}
	evs := []trace.Event{
		{Name: "campaign/s0", Phase: trace.PhaseComplete, Dur: 100},
		{Name: "campaign/s1", Phase: trace.PhaseComplete, Dur: 100},
		{Name: "finding", Phase: trace.PhaseInstant},
		{Name: "findings", Phase: trace.PhaseCounter, Value: 1},
		{Name: "funcs", Phase: trace.PhaseCounter, Value: 4},
	}
	for _, tc := range []struct {
		clause string
		trace  bool
		holds  bool
	}{
		{"a", false, true},
		{"h", false, true},         // presence sees histogram children
		{"h>0", false, false},      // a comparison reads name and name{…} only
		{"l==9", false, true},      // labelled children sum
		{"a/b>=1.5", false, true},  // ratio
		{"a/zero>0", false, false}, // zero denominator: undefined
		{"a/missing<1", false, false},
		{"missing=0", false, false}, // absent is never 0
		{"a!=b", false, true},
		{"b<a", false, true},
		{"a>b", false, true},
		{"a<=3", false, true},
		{"a==3, b==3", false, false},
		{"spans(campaign/s)==2", true, true},
		{"spans(campaign/s)==3", true, false},
		{"instants(finding)!=1", true, false},
		{"dur(campaign/)>=200", true, true},
		{"spans(campaign/s)>0, instants(finding)=1", true, true},
		{"counter(absent)==0", true, false},
		{"findings/funcs<=0.25", true, true}, // over a trace, series are counters
		{"findings", true, true},
		{"spans(nothing)", true, false},
		{"instants(finding)", true, true},
	} {
		var err error
		if tc.trace {
			err = CheckTrace(tc.clause, evs)
		} else {
			err = CheckSeries(tc.clause, series)
		}
		if (err == nil) != tc.holds {
			t.Errorf("%q: holds=%v, want %v (err %v)", tc.clause, err == nil, tc.holds, err)
		}
		if err != nil && strings.Contains(err.Error(), "syntax error") {
			t.Errorf("%q: well-formed clause reported as malformed: %v", tc.clause, err)
		}
	}
}

// TestAssertSyntaxErrors: a malformed clause is a syntax error naming
// the clause — never a failed or missing series.
func TestAssertSyntaxErrors(t *testing.T) {
	for _, tc := range []struct {
		clause string
		trace  bool
	}{
		{"a/b>=x", false}, // a ratio compares with a number
		{"spans(", true},
		{"spans(", false},
		{">0", false},
		{"spans(campaign/s)>0", false}, // a trace function against a snapshot
		{"counter(findings)==1", false},
		{"bogus(x)>0", true},
		{"a>b>c", false},
		{"7", false},
		{"a>=1x", false},
		{"a!b", false},
		{"spans()>0", true},
		{"a/b/c>1", false},
	} {
		var err error
		if tc.trace {
			err = CheckTrace(tc.clause, nil)
		} else {
			err = CheckSeries(tc.clause, map[string]int64{"a": 1})
		}
		if err == nil || !strings.Contains(err.Error(), "syntax error in "+`"`+tc.clause+`"`) {
			t.Errorf("%q: want a syntax error naming the clause, got %v", tc.clause, err)
		}
	}
}

// TestParseSeriesFormatsAgree: the JSON snapshot and the text
// exposition of one registry read back as the same series.
func TestParseSeriesFormatsAgree(t *testing.T) {
	reg := gateSnapshot()
	if text, json := seriesOf(t, reg, false), seriesOf(t, reg, true); !reflect.DeepEqual(text, json) {
		t.Fatalf("formats disagree:\ntext %v\njson %v", text, json)
	}
}
