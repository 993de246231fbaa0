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

// MeasureWorkloads is the E13 experiment: the same fuzz-and-validate
// campaign engine driven by each pluggable candidate source.
//
//   - exhaustive: the E11 baseline rebuilt on the explicit Source
//     adapter (same stream as the nil-Source fast path, so the row
//     doubles as a live check of the refactor)
//   - mutate: coverage-guided CFG mutation fuzzing against the
//     deliberately unsound legacy -O2, with every finding shrunk by
//     the automatic reducer — the corpus/coverage/reduce counters fill
//     the new columns
//   - wide8: a deterministic stride sample of the i8 space with the
//     exhaustive-input cutoff raised so every verdict still closes
//
// The rows share the checks/sec axis with E11, so the cost of CFG
// candidates (loops, phis) and of wide inputs is directly readable
// against the straight-line i2 baseline. seed fixes the mutation RNG;
// the row is byte-deterministic in it regardless of workers.
func MeasureWorkloads(numInstrs, maxFuncs, workers int, seed int64, reg *telemetry.Registry) []PipelineResult {
	var rows []PipelineResult

	// Exhaustive baseline.
	{
		c := pipelineCampaign(true, numInstrs, maxFuncs, workers, true, false, true)
		rows = append(rows, runWorkloadRow(&c, workers, reg))
	}

	// Coverage-guided mutation against the unsound legacy -O2: the
	// workload that actually produces findings, so the reducer columns
	// are live. PerEpoch spreads the row's budget across the default
	// epoch count to keep the total comparable to the other rows.
	{
		sem := core.LegacyOptions(core.BranchPoisonNondet)
		pcfg := passes.DefaultLegacyConfig()
		pcfg.Unsound = true
		mcfg := optfuzz.DefaultMutationConfig(seed)
		mcfg.Gen = optfuzz.DefaultConfig(numInstrs)
		mcfg.Mode = ir.VerifyLegacy
		// CFG mutants with loops cost far more per check than the
		// straight-line baseline; quick runs shrink the epoch budget,
		// full runs keep the source default rather than scaling up.
		if per := maxFuncs / 4; per > 0 && per < mcfg.PerEpoch {
			mcfg.PerEpoch = per
		}
		c := optfuzz.Campaign{
			Source:      optfuzz.NewMutationSource(mcfg),
			Refine:      refine.DefaultConfig(sem, sem),
			Pipeline:    passes.O2().Instrument(),
			PipelineCfg: pcfg,
			Workers:     workers,
			Reduce:      true,
		}
		rows = append(rows, runWorkloadRow(&c, workers, reg))
	}

	// Sampled i8 with closed input enumeration.
	{
		sem := core.FreezeOptions()
		rcfg := refine.DefaultConfig(sem, sem)
		rcfg.ExhaustiveInputBits = 8
		c := optfuzz.Campaign{
			Source: optfuzz.NewWideSource(optfuzz.WideConfig{
				Width:       8,
				NumInstrs:   numInstrs,
				MaxFuncs:    maxFuncs,
				AllowPoison: true,
			}),
			Refine:      rcfg,
			Pipeline:    passes.O2().Instrument(),
			PipelineCfg: passes.DefaultFreezeConfig(),
			Workers:     workers,
		}
		rows = append(rows, runWorkloadRow(&c, workers, reg))
	}
	return rows
}

func runWorkloadRow(c *optfuzz.Campaign, workers int, reg *telemetry.Registry) PipelineResult {
	name := "exhaustive"
	if c.Source != nil {
		name = c.Source.Name()
	}
	start := time.Now()
	st := runRow(c, reg, "experiment", "workload", "workload", name,
		"workers", strconv.Itoa(workers))
	elapsed := time.Since(start)
	checks := st.Verified + st.Refuted + st.Inconclusive
	r := PipelineResult{
		Pipeline:        "o2",
		Workload:        st.Source,
		Workers:         workers,
		Memo:            true,
		Passes:          1,
		Funcs:           st.Funcs,
		Checks:          checks,
		Refuted:         st.Refuted,
		Elapsed:         elapsed,
		ChecksPerSec:    float64(checks) / elapsed.Seconds(),
		MemoHits:        st.MemoHits,
		MemoLookups:     st.MemoLookups,
		HitRate:         st.HitRate(),
		AnalysisCache:   true,
		Epochs:          st.Epochs,
		CorpusSize:      st.CorpusSize,
		CoverageKeys:    st.CoverageKeys,
		ReduceSteps:     st.ReduceSteps,
		ReducedFindings: st.ReducedFindings,
	}
	if st.Opt != nil {
		a := st.Opt.Analysis()
		r.AnalysisComputes = a.Computes
		r.AnalysisHits = a.Hits
		r.FreezeElimRemoved = st.Opt.FreezeElimRemoved()
	}
	return r
}

// ReportWorkloads renders the E13 table.
func ReportWorkloads(w io.Writer, rows []PipelineResult) {
	fmt.Fprintf(w, "== E13: pluggable workloads (-O2, shared campaign engine) ==\n")
	fmt.Fprintf(w, "%-12s %7s %8s %8s %8s %10s %11s %7s %7s %9s %7s\n",
		"workload", "workers", "funcs", "checks", "refuted", "elapsed", "checks/sec",
		"epochs", "corpus", "red-steps", "red-fnd")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %7d %8d %8d %8d %10s %11.0f %7d %7d %9d %7d\n",
			r.Workload, r.Workers, r.Funcs, r.Checks, r.Refuted,
			r.Elapsed.Round(time.Millisecond), r.ChecksPerSec,
			r.Epochs, r.CorpusSize, r.ReduceSteps, r.ReducedFindings)
	}
}
