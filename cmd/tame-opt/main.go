// tame-opt runs optimizer passes over textual IR, like LLVM's opt.
//
// Usage:
//
//	tame-opt [-sem legacy|freeze] [-passes p1,p2,...|O2] [-unsound]
//	         [-verify-each=false] [-time-passes] [-stats] [-print-changed]
//	         [-metrics file|-] [file]
//
// Reads the module from file (or stdin), runs the passes, prints the
// transformed module. -passes O2 (or o2) runs the standard pipeline to
// fixed point; an explicit list runs each pass once, in order.
// -verify-each, on by default, runs the checker battery after every
// pass step: IR verifier, SSA dominance and analysis cache coherence.
// Instrumentation (-time-passes, -stats, -print-changed) goes to
// stderr so the IR on stdout stays pipeable. -time-passes and -metrics
// time each pass step's Run as a pass/<name> span; the verify-each
// battery after it is not in the pass's time.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/passes"
	"tameir/internal/telemetry"
)

func main() {
	sem := flag.String("sem", "freeze", "semantics: legacy or freeze")
	passList := flag.String("passes", "O2", "comma-separated pass names, or O2 (o2) for the -O2 fixpoint")
	unsound := flag.Bool("unsound", false, "use the historical (pre-paper) pass variants")
	verifyEach := flag.Bool("verify-each", true, "run the checker battery after every pass: IR verifier, SSA dominance, analysis cache coherence")
	timePasses := flag.Bool("time-passes", false, "report per-pass wall time to stderr (each pass's Run, timed by its pass span)")
	stats := flag.Bool("stats", false, "report per-pass change counts and analysis-cache counters to stderr")
	printChanged := flag.Bool("print-changed", false, "dump IR to stderr after every pass that changed it")
	metricsPath := flag.String("metrics", "", "write the pass-manager metric snapshot, pass spans included, to this file ('-' = text on stdout, *.json = JSON)")
	flag.Parse()

	var src []byte
	var err error
	if flag.NArg() > 0 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fatal(err)
	}
	mod, err := ir.ParseModule(string(src))
	if err != nil {
		fatal(err)
	}

	cfg := &passes.Config{Unsound: *unsound, VerifyEach: *verifyEach, FreezeAware: true}
	if cfg.Sem, err = core.SemanticsByName(*sem); err != nil {
		fatal(err)
	}
	if err := ir.VerifyModule(mod, cfg.Sem.Mode.VerifyMode()); err != nil {
		fatal(err)
	}

	pm, fixpoint, err := passes.ParsePipeline(*passList)
	if err != nil {
		fatal(err)
	}
	if *timePasses || *stats || *metricsPath != "" {
		pm.Instrument()
	}
	// Pass time comes from the pass spans alone: -time-passes and
	// -metrics time every step as span_wall_ns{span="pass/<name>"} in
	// the registry -metrics writes.
	reg := telemetry.NewRegistry()
	if *timePasses || *metricsPath != "" {
		pm.Trace = telemetry.NewScope(reg, "pass")
	}
	if *printChanged {
		pm.PrintChanged = os.Stderr
	}

	if fixpoint {
		pm.Run(mod, cfg)
	} else {
		// An explicit list keeps the historical single-sweep,
		// pass-major semantics: every function sees pass k before any
		// function sees pass k+1.
		pm.RunOnce(mod, cfg)
	}
	fmt.Print(mod)
	pm.Stats.Emit(os.Stderr, *timePasses, *stats)
	if *metricsPath != "" {
		reg.Merge(pm.Stats.Registry())
		if err := reg.Snapshot().WriteFile(*metricsPath); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tame-opt:", err)
	os.Exit(1)
}
