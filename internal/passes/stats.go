package passes

import (
	"fmt"
	"io"
	"sort"
	"time"

	"tameir/internal/analysis"
	"tameir/internal/telemetry"
)

// PassStat is the accumulated record for one pass name across every
// function a PassManager ran it over.
type PassStat struct {
	Name    string
	Runs    int
	Changed int
	Wall    time.Duration
	// InstrsRemoved is the net instruction-count reduction attributed
	// to the pass (negative when the pass grows functions, as the
	// inliner does).
	InstrsRemoved int
}

// Stats accumulates pass-manager instrumentation: per-pass timing and
// change counts, fixpoint behaviour, and analysis-cache counters. One
// Stats belongs to one PassManager; merge per-shard collectors with
// Merge (deterministic given deterministic merge order).
//
// Since the telemetry PR the collector is a view over a
// telemetry.Registry: every count lives in a named registry metric
// (pass_runs_total{pass=...}, opt_funcs_total, analysis_hits_total,
// ...) and the historical accessors read them back. Report/ReportTime
// output is byte-identical to the pre-registry collector; Registry()
// exposes the backing store so campaigns fold pass counters into their
// campaign-wide snapshot with one Merge.
type Stats struct {
	reg *telemetry.Registry

	funcs     telemetry.Counter
	iters     telemetry.Counter
	converged telemetry.Counter
	aComputes telemetry.Counter
	aHits     telemetry.Counter
	aPoisonQ  telemetry.Counter

	verifyChecks   telemetry.Counter
	verifyFailures telemetry.Counter
	freezeRemoved  telemetry.Counter

	byName map[string]*passHandles
	order  []string // first-recorded order: matches pipeline position
}

// passHandles caches one pass's resolved registry instruments so the
// per-step hot path is four atomic adds, no name formatting.
type passHandles struct {
	runs    telemetry.Counter
	changed telemetry.Counter
	wall    telemetry.Counter
	removed telemetry.Gauge
	// freezeElim: the pass is freeze-elim, whose instruction delta
	// counts the freezes it removed.
	freezeElim bool
}

// NewStats returns an empty collector.
func NewStats() *Stats {
	reg := telemetry.NewRegistry()
	return &Stats{
		reg:       reg,
		funcs:     reg.Counter("opt_funcs_total", telemetry.Deterministic, "functions run through the pipeline"),
		iters:     reg.Counter("opt_fixpoint_iters_total", telemetry.Deterministic, "whole-pipeline rounds executed"),
		converged: reg.Counter("opt_converged_total", telemetry.Deterministic, "functions reaching a true fixpoint"),
		aComputes: reg.Counter("analysis_computes_total", telemetry.Deterministic, "analyses computed"),
		aHits:     reg.Counter("analysis_hits_total", telemetry.Deterministic, "analysis cache hits"),
		aPoisonQ:  reg.Counter("analysis_poison_queries_total", telemetry.Deterministic, "poison-fact queries answered"),
		// Registered eagerly (not on first event) so a snapshot always
		// carries them: the CI assertion verify_each_failures_total=0
		// needs the zero to be visible, not absent.
		verifyChecks:   reg.Counter("verify_each_checks_total", telemetry.Deterministic, "verify-each batteries run between pass steps"),
		verifyFailures: reg.Counter("verify_each_failures_total", telemetry.Deterministic, "verify-each batteries that found a violation"),
		freezeRemoved:  reg.Counter("passes_freeze_elim_removed_total", telemetry.Deterministic, "freeze instructions deleted by freeze-elim"),
		byName:         map[string]*passHandles{},
	}
}

// Registry exposes the backing metric store (never nil).
func (s *Stats) Registry() *telemetry.Registry { return s.reg }

// handles returns the registry instruments for one pass name,
// registering them on first use. Per-pass run/changed/Δinstr counts
// are pure functions of the shard partition; wall time never is.
func (s *Stats) handles(name string) *passHandles {
	h := s.byName[name]
	if h == nil {
		h = &passHandles{
			runs:    s.reg.Counter(telemetry.L("pass_runs_total", "pass", name), telemetry.Deterministic, "pass executions"),
			changed: s.reg.Counter(telemetry.L("pass_changed_total", "pass", name), telemetry.Deterministic, "pass executions that changed the function"),
			wall:    s.reg.Counter(telemetry.L("pass_wall_ns_total", "pass", name), telemetry.Scheduling, "pass wall time in nanoseconds"),
			removed: s.reg.Gauge(telemetry.L("pass_instrs_removed", "pass", name), telemetry.Deterministic, "net instructions removed"),
			// freeze-elim only ever deletes freezes, so its instruction
			// delta IS the number of freezes removed.
			freezeElim: name == "freeze-elim",
		}
		s.byName[name] = h
		s.order = append(s.order, name)
	}
	return h
}

func (s *Stats) record(h *passHandles, changed bool, wall time.Duration, instrDelta int) {
	h.runs.Inc()
	h.wall.Add(uint64(wall))
	if changed {
		h.changed.Inc()
		h.removed.Add(int64(instrDelta))
		if h.freezeElim && instrDelta > 0 {
			s.freezeRemoved.Add(uint64(instrDelta))
		}
	}
}

func (s *Stats) noteFunc(rounds int, converged bool) {
	s.funcs.Inc()
	s.iters.Add(uint64(rounds))
	if converged {
		s.converged.Inc()
	}
}

// addAnalysis folds an analysis manager's cache counters in.
func (s *Stats) addAnalysis(a analysis.Stats) {
	s.aComputes.Add(a.Computes)
	s.aHits.Add(a.Hits)
	s.aPoisonQ.Add(a.PoisonQueries)
}

// FreezeElimRemoved is the number of freeze instructions freeze-elim
// deleted (TestFreezeElimCampaignTranslationValidation pins it).
func (s *Stats) FreezeElimRemoved() uint64 { return s.freezeRemoved.Value() }

// VerifyEachFailures is the number of verify-each batteries that found
// a violation (CI asserts this stays zero).
func (s *Stats) VerifyEachFailures() uint64 { return s.verifyFailures.Value() }

// Funcs is the number of functions run through the pipeline.
func (s *Stats) Funcs() int { return int(s.funcs.Value()) }

// FixpointIters is the total number of whole-pipeline rounds executed
// across all functions.
func (s *Stats) FixpointIters() int { return int(s.iters.Value()) }

// Converged counts functions whose last round reported no change
// (i.e. a true fixpoint, not the round cap).
func (s *Stats) Converged() int { return int(s.converged.Value()) }

// Analysis returns the accumulated analysis computation and cache-hit
// counts.
func (s *Stats) Analysis() analysis.Stats {
	return analysis.Stats{Computes: s.aComputes.Value(), Hits: s.aHits.Value()}
}

// PassStats returns a copy of the per-pass records in first-recorded
// (pipeline) order.
func (s *Stats) PassStats() []PassStat {
	out := make([]PassStat, 0, len(s.order))
	for _, n := range s.order {
		h := s.byName[n]
		out = append(out, PassStat{
			Name:          n,
			Runs:          int(h.runs.Value()),
			Changed:       int(h.changed.Value()),
			Wall:          time.Duration(h.wall.Value()),
			InstrsRemoved: int(h.removed.Value()),
		})
	}
	return out
}

// Merge folds o into s. Pass order follows s first, then any names only
// o saw, so merging per-shard collectors in shard order stays
// deterministic.
func (s *Stats) Merge(o *Stats) {
	if o == nil {
		return
	}
	s.reg.Merge(o.reg)
	for _, n := range o.order {
		// Resolve handles for names s had not seen; the values already
		// arrived via the registry merge.
		s.handles(n)
	}
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
