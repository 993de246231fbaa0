// tame-bench regenerates the paper's evaluation (DESIGN.md's
// per-experiment index):
//
//	-exp validate     E3: §6 translation validation of passes
//	-exp compiletime  E4: §7.2 compile time, baseline vs prototype
//	-exp memory       E5: §7.2 compiler memory
//	-exp codesize     E6: §7.2 object size + freeze fractions
//	-exp runtime      E7: §7.2 run time (Figure 6)
//	-exp ablation     freeze-aware vs freeze-blind optimizations
//	-exp pipeline     E11: parallel fuzz-and-validate throughput
//	-exp exec         E12: execution engines (interpreter/compiled) × workers
//	-exp workload     E13: pluggable workloads (exhaustive / mutate / wide8)
//	-exp all          everything
//
// The E11 and E13 rows share one JSON file (-json, conventionally
// BENCH_pipeline.json): whichever of the two experiments run, their
// rows are accumulated and written once at the end.
//
// E4–E7 share one measurement sweep; the report prints all four
// sections when any of them is requested.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tameir/internal/bench"
	"tameir/internal/telemetry"
	"tameir/internal/telemetry/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment: validate, compiletime, memory, codesize, runtime, ablation, pipeline, exec, workload, all")
	reps := flag.Int("reps", 3, "compile repetitions for wall-time medians")
	valInstrs := flag.Int("validate-instrs", 2, "instructions per generated function (E3)")
	valMax := flag.Int("validate-max", 3000, "max generated functions per pass (E3)")
	pipeWorkers := flag.String("pipeline-workers", "1,2,4", "comma-separated worker counts (E11)")
	execInstrs := flag.Int("exec-instrs", 3, "instructions per generated function (E12)")
	execMax := flag.Int("exec-max", 300, "max generated functions per semantics (E12)")
	execWorkers := flag.String("workers", "1,2", "comma-separated worker counts for the E12 engine×pool rows")
	workloadSeed := flag.Int64("workload-seed", 1, "mutation RNG seed for the E13 workload rows")
	workloadWorkers := flag.Int("workload-workers", 2, "worker count for the E13 workload rows")
	quick := flag.Bool("quick", false, "shrink the exec experiment for CI smoke runs")
	jsonPath := flag.String("json", "", "also write the experiment's rows as JSON to this file (E11, or E12 with -exp exec)")
	metricsPath := flag.String("metrics", "", "write the experiments' campaign metrics after the run ('-' = text on stdout, *.json = JSON)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON flight recording with one span per experiment (open in Perfetto or tame-trace)")
	flag.Parse()

	// One process registry collects every experiment's telemetry when
	// -metrics is set; the harnesses label their rows so the snapshot
	// stays per-row legible. A nil registry is a no-op sink.
	var reg *telemetry.Registry
	if *metricsPath != "" {
		reg = telemetry.NewRegistry()
	}

	// -trace: a coarse timeline of the run — one bench/<experiment>
	// span per section on a single track, so a long -exp all invocation
	// shows where the wall time went.
	var rec *trace.Recorder
	expScope := func(string) *telemetry.Span { return nil }
	if *tracePath != "" {
		rec = trace.NewRecorder(0)
		rec.SetTrackName(0, "bench")
		sreg := reg
		if sreg == nil {
			sreg = telemetry.NewRegistry()
		}
		scope := telemetry.NewScope(sreg, "bench").WithTrace(rec, 0)
		expScope = func(name string) *telemetry.Span { return scope.Start(name) }
	}

	wantMeasure := false
	wantValidate := false
	wantAblation := false
	wantPipeline := false
	wantExec := false
	wantWorkload := false
	// -exp accepts a comma-separated list (e.g. "pipeline,workload" to
	// regenerate BENCH_pipeline.json with both row families).
	for _, e := range strings.Split(*exp, ",") {
		switch strings.TrimSpace(e) {
		case "all":
			wantMeasure, wantValidate, wantAblation, wantPipeline, wantExec, wantWorkload = true, true, true, true, true, true
		case "validate":
			wantValidate = true
		case "compiletime", "memory", "codesize", "runtime":
			wantMeasure = true
		case "ablation":
			wantAblation = true
		case "pipeline":
			wantPipeline = true
		case "exec":
			wantExec = true
		case "workload":
			wantWorkload = true
		default:
			fmt.Fprintf(os.Stderr, "tame-bench: unknown experiment %q\n", e)
			os.Exit(1)
		}
	}

	if wantValidate {
		sp := expScope("validate")
		fmt.Println("# Section 6 experiment: exhaustive generation + translation validation")
		fixed := bench.Validate(true, *valInstrs, *valMax, reg)
		bench.ReportValidation(os.Stdout, "fixed passes, freeze semantics", fixed)
		fmt.Println()
		legacy := bench.Validate(false, *valInstrs, *valMax, reg)
		bench.ReportValidation(os.Stdout, "historical passes, legacy semantics", legacy)
		fmt.Println()
		sp.End()
	}

	if wantMeasure {
		sp := expScope("measure")
		fmt.Println("# Section 7 experiments: baseline vs freeze prototype")
		base, err := bench.MeasureAll(bench.Baseline(), *reps)
		if err != nil {
			fatal(err)
		}
		proto, err := bench.MeasureAll(bench.Prototype(), *reps)
		if err != nil {
			fatal(err)
		}
		bench.Report(os.Stdout, base, proto)
		sp.End()
	}

	// E11 and E13 rows accumulate here and are written to -json once,
	// after whichever of the two experiments ran.
	var pipeRows []bench.PipelineResult

	if wantPipeline {
		sp := expScope("pipeline")
		fmt.Println("# E11: parallel fuzz-and-validate pipeline throughput")
		var rows []bench.PipelineResult
		// Serial memo-off rows are the baselines the speedups are
		// against: single-pass -O2, then the five-pass §6 campaign
		// where the shared memo skips the repeated source derivations.
		// The -O2 rows come in an uncached/cached analysis pair: the
		// uncached twin reproduces the historical recompute-per-pass
		// optimizer, so the gap is what the analysis manager saves.
		rows = append(rows, bench.MeasurePipeline(true, *valInstrs, *valMax, 1, false, false, false, reg))
		rows = append(rows, bench.MeasurePipeline(true, *valInstrs, *valMax, 1, false, false, true, reg))
		rows = append(rows, bench.MeasurePipeline(true, *valInstrs, *valMax, 1, true, false, true, reg))
		rows = append(rows, bench.MeasurePipeline(true, *valInstrs, *valMax, 1, false, true, true, reg))
		for _, w := range splitInts(*pipeWorkers) {
			rows = append(rows, bench.MeasurePipeline(true, *valInstrs, *valMax, w, true, true, true, reg))
		}
		bench.ReportPipeline(os.Stdout, "fixed passes, -O2, freeze semantics", rows)
		fmt.Println()
		// Ablation pair: the same freeze-dialect campaign with and
		// without the poison-analysis-backed freeze-elim pass.
		fe := bench.MeasureFreezeElim(*valInstrs, *valMax, 1, reg)
		bench.ReportFreezeElim(os.Stdout, fe)
		rows = append(rows, fe...)
		pipeRows = append(pipeRows, rows...)
		fmt.Println()
		sp.End()
	}

	if wantWorkload {
		sp := expScope("workload")
		fmt.Println("# E13: pluggable workloads (exhaustive / mutate / wide8)")
		instrs, max := *valInstrs, *valMax
		if *quick {
			instrs, max = 2, 200
		}
		rows := bench.MeasureWorkloads(instrs, max, *workloadWorkers, *workloadSeed, reg)
		bench.ReportWorkloads(os.Stdout, rows)
		pipeRows = append(pipeRows, rows...)
		fmt.Println()
		sp.End()
	}

	if (wantPipeline || wantWorkload) && *jsonPath != "" {
		out, err := json.MarshalIndent(pipeRows, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tame-bench: wrote %s\n", *jsonPath)
	}

	if wantExec {
		sp := expScope("exec")
		fmt.Println("# E12: execution engines (interpreted vs compiled) by worker count")
		instrs, max := *execInstrs, *execMax
		if *quick {
			instrs, max = 2, 60
		}
		rows := bench.MeasureExec(instrs, max, splitInts(*execWorkers))
		bench.ReportExec(os.Stdout, rows)
		for _, r := range rows {
			if !r.TwinOK {
				fatal(fmt.Errorf("exec twin mismatch: %s %s workers=%d row diverges from the interpreted baseline",
					r.Mode, r.Engine, r.Workers))
			}
		}
		if *jsonPath != "" && *exp == "exec" {
			out, err := json.MarshalIndent(rows, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "tame-bench: wrote %s\n", *jsonPath)
		}
		fmt.Println()
		sp.End()
	}

	if wantAblation {
		sp := expScope("ablation")
		fmt.Println("\n# Ablation: what the §6 freeze-awareness work buys")
		proto, err := bench.MeasureAll(bench.Prototype(), *reps)
		if err != nil {
			fatal(err)
		}
		blind, err := bench.MeasureAll(bench.FreezeBlindPrototype(), *reps)
		if err != nil {
			fatal(err)
		}
		bench.ReportAblation(os.Stdout, proto, blind)
		sp.End()
	}

	if *metricsPath != "" {
		// The experiments labeled their campaign telemetry into reg as
		// they ran.
		if err := reg.Snapshot().WriteFile(*metricsPath); err != nil {
			fatal(err)
		}
	}

	if rec != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteChromeJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tame-bench: wrote %s (%d events)\n", *tracePath, len(rec.Events()))
	}
}

func splitInts(s string) []int {
	var out []int
	for _, field := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || n < 0 {
			fatal(fmt.Errorf("bad worker count %q", field))
		}
		out = append(out, n)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tame-bench:", err)
	os.Exit(1)
}
