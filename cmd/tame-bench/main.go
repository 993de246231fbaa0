// tame-bench regenerates the paper's evaluation (DESIGN.md's
// per-experiment index):
//
//	-exp validate     E3: §6 translation validation of passes
//	-exp compiletime  E4: §7.2 compile time, baseline vs prototype
//	-exp memory       E5: §7.2 compiler memory
//	-exp codesize     E6: §7.2 object size + freeze fractions
//	-exp runtime      E7: §7.2 run time (Figure 6)
//	-exp ablation     freeze-aware vs freeze-blind optimizations
//	-exp all          everything
//
// E4–E7 share one measurement sweep; the report prints all four
// sections when any of them is requested.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tameir/internal/bench"
	"tameir/internal/telemetry"
	"tameir/internal/telemetry/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment: validate, compiletime, memory, codesize, runtime, ablation, all")
	reps := flag.Int("reps", 3, "E4 samples per program and variant, each a batch of 16 back-to-back compiles; the fastest is reported")
	valInstrs := flag.Int("validate-instrs", 2, "instructions per generated function (E3)")
	valMax := flag.Int("validate-max", 3000, "max generated functions per pass (E3)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON flight recording with one span per experiment (open in Perfetto or tame-trace)")
	flag.Parse()

	// -trace: a coarse timeline of the run — one bench/<experiment>
	// span per section on a single track, so a long -exp all invocation
	// shows where the wall time went.
	var rec *trace.Recorder
	expScope := func(string) *telemetry.Span { return nil }
	if *tracePath != "" {
		rec = trace.NewRecorder(0)
		rec.SetTrackName(0, "bench")
		scope := telemetry.NewScope(telemetry.NewRegistry(), "bench").WithTrace(rec, 0)
		expScope = func(name string) *telemetry.Span { return scope.Start(name) }
	}

	wantMeasure := false
	wantValidate := false
	wantAblation := false
	// -exp accepts a comma-separated list (e.g. "validate,ablation").
	for _, e := range strings.Split(*exp, ",") {
		switch strings.TrimSpace(e) {
		case "all":
			wantMeasure, wantValidate, wantAblation = true, true, true
		case "validate":
			wantValidate = true
		case "compiletime", "memory", "codesize", "runtime":
			wantMeasure = true
		case "ablation":
			wantAblation = true
		default:
			fmt.Fprintf(os.Stderr, "tame-bench: unknown experiment %q\n", e)
			os.Exit(1)
		}
	}

	if wantValidate {
		sp := expScope("validate")
		fmt.Println("# Section 6 experiment: exhaustive generation + translation validation")
		fixed := bench.Validate(true, *valInstrs, *valMax)
		bench.ReportValidation(os.Stdout, "fixed passes, freeze semantics", fixed)
		fmt.Println()
		legacy := bench.Validate(false, *valInstrs, *valMax)
		bench.ReportValidation(os.Stdout, "historical passes, legacy semantics", legacy)
		fmt.Println()
		sp.End()
	}

	// The prototype is measured once and shared by E4–E7 and the
	// ablation. E4 times the baseline and the prototype in alternation,
	// program by program.
	measure := func(vs ...bench.Variant) [][]bench.Measurement {
		ms, err := bench.MeasureAll(*reps, vs...)
		if err != nil {
			fatal(err)
		}
		return ms
	}
	var proto []bench.Measurement
	if wantMeasure {
		sp := expScope("measure")
		fmt.Println("# Section 7 experiments: baseline vs freeze prototype")
		ms := measure(bench.Baseline(), bench.Prototype())
		proto = ms[1]
		bench.Report(os.Stdout, ms[0], proto)
		sp.End()
	}

	if wantAblation {
		sp := expScope("ablation")
		fmt.Println("\n# Ablation: what the §6 freeze-awareness work buys")
		if proto == nil {
			proto = measure(bench.Prototype())[0]
		}
		bench.ReportAblation(os.Stdout, proto, measure(bench.FreezeBlindPrototype())[0])
		sp.End()
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tame-bench:", err)
	os.Exit(1)
}
