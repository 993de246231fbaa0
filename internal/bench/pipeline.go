package bench

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
	"tameir/internal/passes"
	"tameir/internal/refine"
	"tameir/internal/telemetry"
)

// PipelineResult is one row of the E11 throughput experiment: a §6
// validation campaign run on the sharded worker pool. Checks counts
// (candidate, pass) validations — for a multi-pass campaign that is
// Passes×Funcs, and checks/sec is the throughput number that makes
// rows with different pass counts comparable.
type PipelineResult struct {
	// Pipeline labels the pass configuration the row ran ("o2",
	// "o2-no-freeze-elim", "validation-passes") so ablation pairs are
	// self-describing in the JSON.
	Pipeline     string
	Workers      int
	Memo         bool
	Passes       int
	Funcs        int
	Checks       int
	Refuted      int
	Elapsed      time.Duration
	ChecksPerSec float64
	MemoHits     uint64
	MemoLookups  uint64
	HitRate      float64 // in [0, 1]

	// AnalysisCache is whether the pass manager served CFG/domtree/
	// loopinfo from its per-function cache (the cached-vs-uncached
	// experiment toggles it; multi-pass campaigns always cache).
	AnalysisCache bool
	// AnalysisComputes / AnalysisHits are the analysis manager's
	// counters summed across shards (only recorded for -O2 campaigns,
	// which run through an instrumented PassManager).
	AnalysisComputes uint64
	AnalysisHits     uint64
	// FreezeElimRemoved is the number of freeze instructions the
	// poison-analysis-backed freeze-elim pass deleted (zero for
	// pipelines that do not include it).
	FreezeElimRemoved uint64

	// Workload / Epochs / CorpusSize / CoverageKeys / ReduceSteps /
	// ReducedFindings describe the E13 pluggable-workload rows: which
	// candidate source fed the campaign, how many generations an
	// evolving source ran, its end-of-run corpus state, and the
	// automatic reducer's work on the row's findings. All zero for the
	// E11 exhaustive rows.
	Workload        string
	Epochs          int
	CorpusSize      int
	CoverageKeys    int
	ReduceSteps     uint64
	ReducedFindings uint64
}

// pipelineCampaign builds the §6 validation campaign: -O2 alone, or
// all five validation passes (multiPass) sharing each shard's memo.
func pipelineCampaign(fixed bool, numInstrs, maxFuncs, workers int, memo, multiPass, analysisCache bool) optfuzz.Campaign {
	var sem core.Options
	var pcfg *passes.Config
	gen := optfuzz.DefaultConfig(numInstrs)
	gen.EnumAttrs = true
	if fixed {
		sem = core.FreezeOptions()
		pcfg = passes.DefaultFreezeConfig()
		gen.AllowUndef = false
		gen.AllowPoison = true
	} else {
		sem = core.LegacyOptions(core.BranchPoisonNondet)
		pcfg = passes.DefaultLegacyConfig()
		gen.AllowUndef = true
	}
	gen.MaxFuncs = maxFuncs
	memoEntries := 0
	if !memo {
		memoEntries = -1
	}
	c := optfuzz.Campaign{
		Gen:         gen,
		Refine:      refine.DefaultConfig(sem, sem),
		Workers:     workers,
		MemoEntries: memoEntries,
	}
	if multiPass {
		for _, vp := range validationPasses() {
			run := vp.run
			c.Transforms = append(c.Transforms, optfuzz.NamedTransform{
				Name: vp.name,
				Fn:   func(f *ir.Func) { run(f, pcfg) },
			})
		}
	} else {
		pm := passes.O2().Instrument()
		pm.NoAnalysisCache = !analysisCache
		c.Pipeline = pm
		c.PipelineCfg = pcfg
	}
	return c
}

// runRow runs one campaign row, folding its telemetry into reg (when
// non-nil) with the row's labels stamped on every series the campaign
// does not already label more finely. One sub-registry per row keeps
// rows distinguishable in the process snapshot while unlabeled
// process-wide series still sum across rows.
func runRow(c *optfuzz.Campaign, reg *telemetry.Registry, labels ...string) optfuzz.Stats {
	var sub *telemetry.Registry
	if reg != nil {
		sub = telemetry.NewRegistry()
		c.Telemetry = sub
	}
	st := c.Run()
	reg.MergeLabeled(sub, labels...)
	return st
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// MeasurePipeline times one campaign configuration and reports
// validation throughput and memo effectiveness. reg, when non-nil,
// receives the campaign's telemetry labeled with the row coordinates.
func MeasurePipeline(fixed bool, numInstrs, maxFuncs, workers int, memo, multiPass, analysisCache bool, reg *telemetry.Registry) PipelineResult {
	c := pipelineCampaign(fixed, numInstrs, maxFuncs, workers, memo, multiPass, analysisCache)
	npasses := 1
	if multiPass {
		npasses = len(c.Transforms)
	}
	rowLabel := "o2"
	if multiPass {
		rowLabel = "validation-passes"
	}
	start := time.Now()
	st := runRow(&c, reg, "experiment", "pipeline", "pipeline", rowLabel,
		"workers", strconv.Itoa(workers), "memo", onOff(memo), "acache", onOff(multiPass || analysisCache))
	elapsed := time.Since(start)
	checks := st.Verified + st.Refuted + st.Inconclusive
	r := PipelineResult{
		Pipeline:      rowLabel,
		Workers:       workers,
		Memo:          memo,
		Passes:        npasses,
		Funcs:         st.Funcs,
		Checks:        checks,
		Refuted:       st.Refuted,
		Elapsed:       elapsed,
		ChecksPerSec:  float64(checks) / elapsed.Seconds(),
		MemoHits:      st.MemoHits,
		MemoLookups:   st.MemoLookups,
		HitRate:       st.HitRate(),
		AnalysisCache: multiPass || analysisCache,
	}
	if st.Opt != nil {
		a := st.Opt.Analysis()
		r.AnalysisComputes = a.Computes
		r.AnalysisHits = a.Hits
		r.FreezeElimRemoved = st.Opt.FreezeElimRemoved()
	}
	return r
}

// MeasureFreezeElim is the freeze-elim ablation: the same
// freeze-dialect campaign over a freeze-heavy opcode mix run through
// (a) freeze-elim alone, (b) the full -O2, and (c) the -O2 pipeline
// with freeze-elim removed. Every rewrite in every row is
// translation-validated by the campaign, so FreezeElimRemoved counts
// proven-sound deletions. The standalone row shows the dataflow
// analysis firing; the -O2 pair bounds the pipeline cost of carrying
// the pass. (On straight-line exhaustive functions the instcombine
// that precedes freeze-elim in -O2 already deletes the same freezes
// through the local operand walk — the flow-sensitive pass earns its
// keep on phis, loops, and dominated guards, covered by the FileCheck
// corpus rather than this generator.)
func MeasureFreezeElim(numInstrs, maxFuncs, workers int, reg *telemetry.Registry) []PipelineResult {
	fe, err := passes.NewPassManager("freeze-elim")
	if err != nil {
		panic(err) // registry invariant: the pass is always registered
	}
	configs := []struct {
		label string
		pm    *passes.PassManager
	}{
		{"freeze-elim", fe},
		{"o2", passes.O2()},
		{"o2-no-freeze-elim", passes.O2WithoutFreezeElim()},
	}
	rows := make([]PipelineResult, 0, len(configs))
	for _, cc := range configs {
		sem := core.FreezeOptions()
		gen := optfuzz.DefaultConfig(numInstrs)
		// Freeze-heavy menu: every function is a candidate for the
		// pass, so the ablation gap is signal, not noise.
		gen.Opcodes = []ir.Op{ir.OpFreeze, ir.OpAdd, ir.OpSelect, ir.OpICmp}
		gen.AllowUndef = false
		gen.AllowPoison = true
		gen.MaxFuncs = maxFuncs
		c := optfuzz.Campaign{
			Gen:         gen,
			Refine:      refine.DefaultConfig(sem, sem),
			Pipeline:    cc.pm.Instrument(),
			PipelineCfg: passes.DefaultFreezeConfig(),
			Workers:     workers,
		}
		start := time.Now()
		st := runRow(&c, reg, "experiment", "freeze-elim-ablation", "pipeline", cc.label)
		elapsed := time.Since(start)
		checks := st.Verified + st.Refuted + st.Inconclusive
		r := PipelineResult{
			Pipeline:      cc.label,
			Workers:       workers,
			Memo:          true,
			Passes:        1,
			Funcs:         st.Funcs,
			Checks:        checks,
			Refuted:       st.Refuted,
			Elapsed:       elapsed,
			ChecksPerSec:  float64(checks) / elapsed.Seconds(),
			MemoHits:      st.MemoHits,
			MemoLookups:   st.MemoLookups,
			HitRate:       st.HitRate(),
			AnalysisCache: true,
		}
		if st.Opt != nil {
			a := st.Opt.Analysis()
			r.AnalysisComputes = a.Computes
			r.AnalysisHits = a.Hits
			r.FreezeElimRemoved = st.Opt.FreezeElimRemoved()
		}
		rows = append(rows, r)
	}
	return rows
}

// ReportFreezeElim renders the ablation pair.
func ReportFreezeElim(w io.Writer, rows []PipelineResult) {
	fmt.Fprintf(w, "== freeze-elim ablation (freeze dialect, freeze-heavy mix) ==\n")
	fmt.Fprintf(w, "%-20s %8s %8s %10s %11s %10s\n",
		"pipeline", "funcs", "checks", "elapsed", "checks/sec", "fz-removed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %8d %8d %10s %11.0f %10d\n",
			r.Pipeline, r.Funcs, r.Checks,
			r.Elapsed.Round(time.Millisecond), r.ChecksPerSec, r.FreezeElimRemoved)
	}
}

// ReportPipeline renders the E11 table.
func ReportPipeline(w io.Writer, title string, rows []PipelineResult) {
	fmt.Fprintf(w, "== E11: pipeline throughput (%s) ==\n", title)
	fmt.Fprintf(w, "%8s %5s %7s %7s %8s %8s %10s %11s %9s\n",
		"workers", "memo", "acache", "passes", "funcs", "checks", "elapsed", "checks/sec", "hit-rate")
	for _, r := range rows {
		memo := "off"
		if r.Memo {
			memo = "on"
		}
		acache := "off"
		if r.AnalysisCache {
			acache = "on"
		}
		fmt.Fprintf(w, "%8d %5s %7s %7d %8d %8d %10s %11.0f %8.1f%%\n",
			r.Workers, memo, acache, r.Passes, r.Funcs, r.Checks,
			r.Elapsed.Round(time.Millisecond), r.ChecksPerSec, 100*r.HitRate)
	}
}
