// tame-tv is the translation validator (Alive-lite): it decides by
// exhaustive enumeration whether one function refines another.
//
// Usage:
//
//	tame-tv [-sem legacy|freeze] src.ll tgt.ll      validate a pair
//	tame-tv [-sem ...] -pass gvn[,p2...] file.ll    run passes, validate
//	tame-tv [-sem ...] -pass o2 file.ll             run -O2, validate
//
// Every input module must verify in the -sem dialect (an undef under
// freeze semantics is an input error, as in tame-opt). -pass reads a
// pipeline as tame-opt's -passes does: O2 (or o2) runs the -O2
// pipeline to fixed point on each function; an explicit list runs each
// pass once, in order.
//
// Functions are matched by name and validated on a worker pool
// (-workers 0 = one per CPU, 1 = serial); reports are printed in input
// order regardless of the worker count. Exit status 1 on any refuted
// pair.
//
// -trace writes a Chrome trace-event JSON flight recording (open in
// Perfetto, or inspect with tame-trace): one span per validated pair
// plus the checker's per-phase spans (check/compile,
// check/behaviors_src, check/behaviors_tgt), laid out on one track
// per pool worker.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/parallel"
	"tameir/internal/passes"
	"tameir/internal/refine"
	"tameir/internal/telemetry"
	"tameir/internal/telemetry/trace"
)

func main() {
	sem := flag.String("sem", "freeze", "semantics: legacy or freeze")
	passList := flag.String("pass", "", "run these passes on the input and validate the result: comma-separated pass names, or O2 (o2) for the -O2 fixpoint")
	unsound := flag.Bool("unsound", false, "use the historical pass variants")
	workers := flag.Int("workers", 1, "worker pool size (0 = one per CPU, 1 = serial)")
	interp := flag.Bool("interp", false, "force the tree-walking interpreter instead of the compiled engine")
	metricsPath := flag.String("metrics", "", "write the checker metric snapshot to this file ('-' = text on stdout, *.json = JSON)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON flight recording to this file (open in Perfetto or tame-trace)")
	flag.Parse()

	// -trace: one track per pool worker; each pair lands on the track of
	// the worker that checks it.
	// The scope needs some registry for its span histograms, but the
	// flight recording is the product here, so a throwaway one does.
	var rec *trace.Recorder
	var checkScope *telemetry.Scope
	if *tracePath != "" {
		rec = trace.NewRecorder(0)
		checkScope = telemetry.NewScope(telemetry.NewRegistry(), "check")
	}

	opts, err := core.SemanticsByName(*sem)
	if err != nil {
		fatal(err)
	}
	rcfg := refine.DefaultConfig(opts, opts)
	rcfg.Interpret = *interp

	// check runs one src→tgt validation with worker-private checker
	// state. Each call gets its own oracle (and metric collector) so
	// concurrent checks never share storage; per-pair collectors merge
	// in input order below, the shard-order discipline. When tracing,
	// the whole pair gets a tv/<name> span and the checker's phase
	// spans nest inside it on the same track.
	check := func(src, tgt *ir.Func, met *refine.CheckMetrics, track int) refine.Result {
		cfg := rcfg
		cfg.Oracle = core.NewEnumOracle(cfg.MaxChoices, cfg.MaxFanout)
		cfg.Metrics = met
		if rec != nil {
			cfg.Trace = checkScope.WithTrace(rec, track)
			start := time.Now()
			defer func() { rec.Complete(track, "tv/"+src.Name(), start, time.Since(start)) }()
		}
		return refine.Check(src, tgt, cfg)
	}

	type report struct {
		name string
		res  refine.Result
		met  refine.CheckMetrics
	}

	var reports []report
	if *passList != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: tame-tv -pass p1,p2 file.ll"))
		}
		// An uninstrumented pass manager is read-only, so the workers
		// share it.
		pm, fixpoint, err := passes.ParsePipeline(*passList)
		if err != nil {
			fatal(err)
		}
		mod := parse(flag.Arg(0), opts)
		cfg := &passes.Config{Sem: opts, Unsound: *unsound, FreezeAware: true}
		nameTracks(rec, *workers, len(mod.Funcs))
		reports = make([]report, len(mod.Funcs))
		parallel.Do(*workers, len(mod.Funcs), func(w, i int) {
			f := mod.Funcs[i]
			// The module is shared across workers: transform a private
			// clone, leave the parsed function untouched.
			work := ir.CloneFunc(f)
			if fixpoint {
				pm.RunFunc(work, cfg)
			} else {
				for _, p := range pm.Passes {
					passes.RunPass(p, work, cfg)
				}
			}
			r := &reports[i]
			r.name = f.Name()
			r.res = check(f, work, &r.met, w)
		})
	} else {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: tame-tv src.ll tgt.ll"))
		}
		srcMod := parse(flag.Arg(0), opts)
		tgtMod := parse(flag.Arg(1), opts)
		pairs := make([][2]*ir.Func, 0, len(srcMod.Funcs))
		for _, sf := range srcMod.Funcs {
			tf := tgtMod.FuncByName(sf.Name())
			if tf == nil {
				fatal(fmt.Errorf("target module lacks @%s", sf.Name()))
			}
			pairs = append(pairs, [2]*ir.Func{sf, tf})
		}
		nameTracks(rec, *workers, len(pairs))
		reports = make([]report, len(pairs))
		parallel.Do(*workers, len(pairs), func(w, i int) {
			r := &reports[i]
			r.name = pairs[i][0].Name()
			r.res = check(pairs[i][0], pairs[i][1], &r.met, w)
		})
	}

	anyRefuted := false
	var met refine.CheckMetrics
	for _, r := range reports {
		fmt.Printf("@%s: %s\n", r.name, r.res)
		if r.res.Status == refine.Refuted {
			anyRefuted = true
		}
		met.Add(&r.met)
	}
	if *metricsPath != "" {
		// No memo is in play, so every checker counter is a pure
		// function of the input pair list.
		reg := telemetry.NewRegistry()
		met.Publish(reg, telemetry.Deterministic)
		if err := reg.Snapshot().WriteFile(*metricsPath); err != nil {
			fatal(err)
		}
	}
	if rec != nil {
		if err := writeTrace(*tracePath, rec); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tame-tv: wrote %s (%d events, %d overwritten)\n",
			*tracePath, len(rec.Events()), rec.Dropped())
	}
	if anyRefuted {
		os.Exit(1)
	}
}

// nameTracks labels one trace track per pool worker: parallel.Do
// runs n tasks on min(workers, n) goroutines, and each pair is traced
// on its goroutine's track.
func nameTracks(rec *trace.Recorder, workers, n int) {
	if rec == nil {
		return
	}
	for t := 0; t < min(parallel.Workers(workers), max(n, 1)); t++ {
		rec.SetTrackName(t, fmt.Sprintf("worker %d", t))
	}
}

func writeTrace(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parse reads a module and verifies it in the dialect of sem.
func parse(path string, sem core.Options) *ir.Module {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	mod, err := ir.ParseModule(string(src))
	if err != nil {
		fatal(err)
	}
	if err := ir.VerifyModule(mod, sem.Mode.VerifyMode()); err != nil {
		fatal(err)
	}
	return mod
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tame-tv:", err)
	os.Exit(1)
}
