package passes

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"tameir/internal/analysis"
	"tameir/internal/telemetry"
)

// PassStat is the accumulated record for one pass: one pipeline
// position in a Stats row, or one pass name across every position in
// PassStats.
type PassStat struct {
	Name    string
	Runs    int
	Changed int
	// Wall is the pass's time, summed from its traced steps' pass
	// spans; it stays zero unless PassManager.Trace is set.
	Wall time.Duration
	// InstrsRemoved is the net instruction-count reduction attributed
	// to the pass (negative when the pass grows functions, as the
	// inliner does).
	InstrsRemoved int
}

func (p *PassStat) add(o PassStat) {
	p.Runs += o.Runs
	p.Changed += o.Changed
	p.Wall += o.Wall
	p.InstrsRemoved += o.InstrsRemoved
}

// Stats accumulates pass-manager instrumentation: per-pass change
// counts, instruction deltas and (under a traced PassManager) wall
// time, fixpoint behaviour, analysis-cache counters and the verify-each
// battery's counts. It is a plain per-goroutine collector, like
// refine.CheckMetrics: one Stats belongs to one PassManager, counts
// with ordinary adds, and renders into a registry only when Registry is
// called. Merge per-shard collectors in shard order.
type Stats struct {
	// rows holds one record per pipeline position, named the first
	// time the collector counts a step (track).
	rows []PassStat

	funcs, rounds, converged int
	analysis                 analysis.Stats

	verifyChecks, verifyFailures uint64
}

// NewStats returns an empty collector.
func NewStats() *Stats { return &Stats{} }

// track gives an empty s one row per position of the pipeline ps. A
// collector counts one pipeline: rows are indexed by position.
func (s *Stats) track(ps []Pass) {
	if len(s.rows) == 0 {
		for _, p := range ps {
			s.rows = append(s.rows, PassStat{Name: p.Name()})
		}
	}
}

// record counts one step of the pass at position pos.
func (s *Stats) record(pos int, changed bool, wall time.Duration, instrDelta int) {
	r := &s.rows[pos]
	r.Runs++
	r.Wall += wall
	if changed {
		r.Changed++
		r.InstrsRemoved += instrDelta
	}
}

func (s *Stats) noteFunc(rounds int, converged bool) {
	s.funcs++
	s.rounds += rounds
	if converged {
		s.converged++
	}
}

// FreezeElimRemoved is the number of freeze instructions freeze-elim
// deleted (TestFreezeElimCampaignTranslationValidation pins it).
// freeze-elim only ever deletes freezes, so its instruction delta is
// the number of freezes removed.
func (s *Stats) FreezeElimRemoved() uint64 {
	n := 0
	for _, r := range s.rows {
		if r.Name == (FreezeElim{}).Name() {
			n += r.InstrsRemoved
		}
	}
	return uint64(n)
}

// VerifyEachFailures is the number of verify-each batteries that found
// a violation (CI asserts this stays zero).
func (s *Stats) VerifyEachFailures() uint64 { return s.verifyFailures }

// Funcs is the number of functions run through the pipeline.
func (s *Stats) Funcs() int { return s.funcs }

// FixpointIters is the total number of whole-pipeline rounds executed
// across all functions.
func (s *Stats) FixpointIters() int { return s.rounds }

// Converged counts functions whose last round reported no change
// (i.e. a true fixpoint, not the round cap).
func (s *Stats) Converged() int { return s.converged }

// Analysis returns the accumulated analysis computation, cache-hit and
// poison-query counts.
func (s *Stats) Analysis() analysis.Stats { return s.analysis }

// PassStats returns the per-pass records, one per pass name in
// pipeline order, each folding every position that runs the pass.
func (s *Stats) PassStats() []PassStat {
	var out []PassStat
	for _, r := range s.rows {
		if i := slices.IndexFunc(out, func(o PassStat) bool { return o.Name == r.Name }); i >= 0 {
			out[i].add(r)
		} else {
			out = append(out, r)
		}
	}
	return out
}

// Merge folds o into s row by row. Campaign shards are clones of one
// pipeline, so their rows line up; an empty s takes o's.
func (s *Stats) Merge(o *Stats) {
	if o == nil {
		return
	}
	if len(s.rows) == 0 {
		for _, r := range o.rows {
			s.rows = append(s.rows, PassStat{Name: r.Name})
		}
	}
	for i, r := range o.rows {
		if s.rows[i].Name != r.Name {
			panic("passes: merging the Stats of two pipelines")
		}
		s.rows[i].add(r)
	}
	s.funcs += o.funcs
	s.rounds += o.rounds
	s.converged += o.converged
	s.analysis.Add(o.analysis)
	s.verifyChecks += o.verifyChecks
	s.verifyFailures += o.verifyFailures
}

// Registry renders the counts into a fresh registry: pass_runs_total,
// pass_changed_total and pass_instrs_removed per pass name, and the
// opt_*, analysis_*, verify_each_* and freeze-elim totals, all
// Deterministic. Every total is registered even at zero, so a CI
// assertion such as verify_each_failures_total=0 finds it. Pass time
// is not here: it is span_wall_ns{span="pass/<name>"} in the registry
// of PassManager.Trace.
func (s *Stats) Registry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	det := telemetry.Deterministic
	reg.Counter("opt_funcs_total", det, "functions run through the pipeline").Add(uint64(s.funcs))
	reg.Counter("opt_fixpoint_iters_total", det, "whole-pipeline rounds executed").Add(uint64(s.rounds))
	reg.Counter("opt_converged_total", det, "functions reaching a true fixpoint").Add(uint64(s.converged))
	reg.Counter("analysis_computes_total", det, "analyses computed").Add(s.analysis.Computes)
	reg.Counter("analysis_hits_total", det, "analysis cache hits").Add(s.analysis.Hits)
	reg.Counter("analysis_poison_queries_total", det, "poison-fact queries answered").Add(s.analysis.PoisonQueries)
	reg.Counter("verify_each_checks_total", det, "verify-each batteries run between pass steps").Add(s.verifyChecks)
	reg.Counter("verify_each_failures_total", det, "verify-each batteries that found a violation").Add(s.verifyFailures)
	reg.Counter("passes_freeze_elim_removed_total", det, "freeze instructions deleted by freeze-elim").Add(s.FreezeElimRemoved())
	for _, ps := range s.PassStats() {
		reg.Counter(telemetry.L("pass_runs_total", "pass", ps.Name), det, "pass executions").Add(uint64(ps.Runs))
		reg.Counter(telemetry.L("pass_changed_total", "pass", ps.Name), det, "pass executions that changed the function").Add(uint64(ps.Changed))
		reg.Gauge(telemetry.L("pass_instrs_removed", "pass", ps.Name), det, "net instructions removed").Add(int64(ps.InstrsRemoved))
	}
	return reg
}

// ReportTime writes an LLVM -time-passes-style table: per-pass wall
// time, sorted descending, with the share of total pass time.
func (s *Stats) ReportTime(w io.Writer) {
	stats := s.PassStats()
	sort.SliceStable(stats, func(i, j int) bool { return stats[i].Wall > stats[j].Wall })
	var total time.Duration
	for _, ps := range stats {
		total += ps.Wall
	}
	fmt.Fprintf(w, "===- Pass execution timing (total %v) -===\n", total)
	for _, ps := range stats {
		share := 0.0
		if total > 0 {
			share = 100 * float64(ps.Wall) / float64(total)
		}
		fmt.Fprintf(w, "  %10v  %5.1f%%  %s\n", ps.Wall, share, ps.Name)
	}
}

// Report writes an LLVM -stats-style summary: per-pass run/change
// counts and instruction deltas in pipeline order, then fixpoint and
// analysis-cache counters.
func (s *Stats) Report(w io.Writer) {
	fmt.Fprintf(w, "===- Pass statistics -===\n")
	fmt.Fprintf(w, "  %-16s %6s %8s %8s\n", "pass", "runs", "changed", "Δinstrs")
	for _, ps := range s.PassStats() {
		fmt.Fprintf(w, "  %-16s %6d %8d %8d\n", ps.Name, ps.Runs, ps.Changed, -ps.InstrsRemoved)
	}
	a := s.Analysis()
	fmt.Fprintf(w, "  functions: %d  fixpoint iterations: %d  converged: %d\n",
		s.Funcs(), s.FixpointIters(), s.Converged())
	fmt.Fprintf(w, "  analyses computed: %d  cache hits: %d\n",
		a.Computes, a.Hits)
}

// Emit is the one -stats formatter behind every CLI: the timing table
// (when timePasses) followed by the statistics summary (when stats).
// tame-opt and tame-fuzz both route through it, so their output can
// never drift apart again.
func (s *Stats) Emit(w io.Writer, timePasses, stats bool) {
	if s == nil {
		return
	}
	if timePasses {
		s.ReportTime(w)
	}
	if stats {
		s.Report(w)
	}
}
