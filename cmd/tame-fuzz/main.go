// tame-fuzz generates IR functions like the paper's opt-fuzz: either
// exhaustively (straight-line, small bitwidth) or randomly (with
// control flow), and optionally pushes every candidate through the
// full fuzz-and-validate pipeline (optimize, then check refinement).
//
// Usage:
//
//	tame-fuzz [-mode exhaustive|random] [-instrs N] [-n MAX] [-seed S] [-width W]
//	tame-fuzz -validate [-source exhaustive|mutate|wide] [-passes p1,p2|o2]
//	          [-sem legacy|freeze] [-unsound] [-verify-each] [-interp]
//	          [-workers N] [-no-memo] [-stats] [-instrs N] [-n MAX]
//	          [-width W] [-seed S] [-epochs N] [-corpus FILE] [-reduce]
//	tame-fuzz -poison-oracle [-sem legacy|freeze] [-workers N]
//	          [-instrs N] [-n MAX] [-width W] [-metrics file|-]
//
// Without -validate each generated function is printed to stdout,
// separated by blank lines — pipe into tame-opt or tame-tv. With
// -validate the campaign runs on a worker pool (-workers 0 = one per
// CPU, 1 = serial) and reports findings plus throughput; the findings
// are byte-identical for every worker count. -passes o2 (or O2) is the
// -O2 pipeline; any list of passes runs to fixpoint too. -verify-each
// additionally runs the full checker battery (IR verifier, SSA
// dominance, analysis cache coherence) between every pass step of the
// campaign pipeline.
// -interp checks on the tree-walking interpreter instead of the
// compiled engine; the findings are byte-identical either way.
//
// -source selects the candidate workload:
//
//	exhaustive   every function in the small space, in order (default)
//	mutate       coverage-guided CFG mutation fuzzing seeded from the
//	             exhaustive prefix (and -corpus, if the file exists);
//	             -seed fixes the RNG, -epochs the generation count, and
//	             the final corpus is written back to -corpus
//	wide         a deterministic stride sample of the i8/i16 space
//	             (-width selects 8 or 16) with the exhaustive-input
//	             cutoff raised so verdicts still close
//
// -reduce pushes every finding through the automatic reducer: a
// greedy, deterministic shrink loop that deletes instructions, drops
// branch arms and zeroes operands while re-checking the refinement
// verdict after every step.
//
// With -poison-oracle the same exhaustive function space is swept by
// the poison-analysis soundness oracle instead: every value the
// flow-sensitive dataflow claims NeverPoison is cross-checked against
// concrete enumeration of input tuples and nondeterministic
// resolutions. Any violation is printed and the exit status is 1.
//
// Observability flags (with -validate):
//
//	-metrics <file|->   write the campaign's metric snapshot: "-" is
//	                    the Prometheus-style text exposition on stdout
//	                    (the campaign header and findings then go to
//	                    stderr), *.json the JSON snapshot, else text to
//	                    the file
//	-progress           live progress line on stderr; findings stream
//	                    out the moment their shard's turn comes,
//	                    instead of being buffered until the end
//	-debug-addr ADDR    serve /metrics, /metrics.json, /metrics/history
//	                    and /debug/pprof on ADDR while the run lasts
//	                    (plus /debug/trace when -trace is set)
//	-trace FILE         record the campaign into the flight recorder
//	                    and write a Chrome trace-event JSON timeline to
//	                    FILE — load it in Perfetto or chrome://tracing,
//	                    or feed it to tame-trace summarize/diff/-assert;
//	                    with -metrics, the shard and check-phase spans
//	                    land in the snapshot's span_wall_ns too
//	-stall-deadline D   arm the stall watchdog: a shard silent for
//	                    longer than D dumps goroutine stacks and an
//	                    emergency trace snapshot instead of hanging
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
	"tameir/internal/passes"
	"tameir/internal/refine"
	"tameir/internal/telemetry"
	"tameir/internal/telemetry/trace"
)

func main() {
	mode := flag.String("mode", "exhaustive", "exhaustive or random")
	instrs := flag.Int("instrs", 2, "instructions per function (exhaustive mode)")
	n := flag.Int("n", 100, "maximum number of functions (0 = unbounded)")
	seed := flag.Int64("seed", 1, "RNG seed (random mode and -source mutate)")
	width := flag.Uint("width", 2, "integer bitwidth")
	validate := flag.Bool("validate", false, "optimize and refinement-check every function")
	passList := flag.String("passes", "o2", "comma-separated passes to validate, or o2 (O2) for the -O2 pipeline")
	sem := flag.String("sem", "freeze", "semantics: legacy or freeze")
	unsound := flag.Bool("unsound", false, "use the historical (buggy) pass variants")
	verifyEach := flag.Bool("verify-each", false, "run the full checker battery after every pass step of the campaign pipeline")
	poisonOracle := flag.Bool("poison-oracle", false, "cross-check every NeverPoison claim of the dataflow analysis against concrete enumeration")
	workers := flag.Int("workers", 1, "worker pool size (0 = one per CPU, 1 = serial)")
	noMemo := flag.Bool("no-memo", false, "disable the behaviour-set memo cache")
	optStats := flag.Bool("stats", false, "report per-pass change counts and timing after a -validate run")
	metricsPath := flag.String("metrics", "", "write the metric snapshot to this file ('-' = text on stdout, *.json = JSON)")
	progress := flag.Bool("progress", false, "live progress line on stderr; stream findings as they are confirmed")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address during the run")
	interp := flag.Bool("interp", false, "check on the tree-walking interpreter instead of the compiled engine (-validate)")
	source := flag.String("source", "exhaustive", "candidate workload for -validate: exhaustive, mutate or wide")
	epochs := flag.Int("epochs", 0, "mutation epochs for -source mutate (0 = default)")
	corpus := flag.String("corpus", "", "corpus file for -source mutate: seeds loaded before the run (if present), final corpus written after")
	reduce := flag.Bool("reduce", false, "shrink every finding with the automatic reducer before reporting it")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON timeline of the -validate run to this file")
	traceBuf := flag.Int("trace-buf", 0, "flight-recorder capacity in events (0 = default 64Ki; oldest events are overwritten)")
	stallDeadline := flag.Duration("stall-deadline", 0, "watchdog deadline: a shard silent this long dumps goroutine stacks and a trace snapshot (0 = off)")
	stallSnapshot := flag.String("stall-snapshot", "", "emergency trace snapshot path for the watchdog (default <trace>.stall.json when -trace is set)")
	flag.Parse()

	if *poisonOracle {
		runPoisonOracle(poisonOracleFlags{
			instrs: *instrs, n: *n, width: *width, sem: *sem,
			workers: *workers, metricsPath: *metricsPath,
		})
		return
	}
	if *validate {
		runCampaign(campaignFlags{
			instrs: *instrs, n: *n, width: *width,
			passList: *passList, sem: *sem, unsound: *unsound,
			verifyEach: *verifyEach,
			workers:    *workers, noMemo: *noMemo, optStats: *optStats,
			metricsPath: *metricsPath, progress: *progress, debugAddr: *debugAddr,
			interp: *interp,
			source: *source, seed: *seed, epochs: *epochs, corpus: *corpus,
			reduce: *reduce, tracePath: *tracePath, traceBuf: *traceBuf,
			stallDeadline: *stallDeadline, stallSnapshot: *stallSnapshot,
		})
		return
	}

	switch *mode {
	case "exhaustive":
		cfg := optfuzz.DefaultConfig(*instrs)
		cfg.Width = *width
		cfg.MaxFuncs = *n
		count, truncated := optfuzz.Exhaustive(cfg, func(f *ir.Func) bool {
			fmt.Println(f)
			return true
		})
		fmt.Fprintf(os.Stderr, "tame-fuzz: %d functions (truncated=%v)\n", count, truncated)
	case "random":
		rng := rand.New(rand.NewSource(*seed))
		rcfg := optfuzz.DefaultRandomConfig()
		rcfg.Width = *width
		for i := 0; i < *n; i++ {
			fmt.Println(optfuzz.Random(rng, rcfg))
		}
	default:
		fmt.Fprintf(os.Stderr, "tame-fuzz: unknown mode %q\n", *mode)
		os.Exit(1)
	}
}

type campaignFlags struct {
	instrs, n        int
	width            uint
	passList, sem    string
	unsound          bool
	verifyEach       bool
	workers          int
	noMemo, optStats bool
	metricsPath      string
	progress         bool
	debugAddr        string
	interp           bool
	source           string
	seed             int64
	epochs           int
	corpus           string
	reduce           bool
	tracePath        string
	traceBuf         int
	stallDeadline    time.Duration
	stallSnapshot    string
}

func runCampaign(fl campaignFlags) {
	opts, err := core.SemanticsByName(fl.sem)
	if err != nil {
		fatal(err)
	}
	pcfg := passes.DefaultFreezeConfig()
	if opts.Mode == core.Legacy {
		pcfg = passes.DefaultLegacyConfig()
	}
	pcfg.Unsound = fl.unsound
	pcfg.VerifyEach = fl.verifyEach
	// Every list, -O2 or not, runs to fixpoint on each candidate.
	pm, _, err := passes.ParsePipeline(fl.passList)
	if err != nil {
		fatal(err)
	}
	pm.Instrument()

	gen := genConfig(fl.instrs, fl.n, fl.width, opts.Mode)

	rcfg := refine.DefaultConfig(opts, opts)
	rcfg.Interpret = fl.interp
	var src optfuzz.Source
	var msrc *optfuzz.MutationSource
	switch fl.source {
	case "", "exhaustive":
		src = optfuzz.NewExhaustiveSource(gen)
	case "mutate":
		mcfg := optfuzz.DefaultMutationConfig(fl.seed)
		mcfg.Gen = gen
		mcfg.Mode = opts.Mode.VerifyMode()
		if fl.epochs > 0 {
			mcfg.Epochs = fl.epochs
		}
		if fl.n > 0 {
			// -n bounds mutants per epoch here, not the whole run.
			mcfg.PerEpoch = fl.n
		}
		if fl.corpus != "" {
			seeds, err := optfuzz.LoadCorpus(fl.corpus)
			switch {
			case err == nil:
				mcfg.Seeds = seeds
				fmt.Fprintf(os.Stderr, "tame-fuzz: corpus: %d seed functions loaded from %s\n", len(seeds), fl.corpus)
			case !os.IsNotExist(err):
				fatal(err)
			}
		}
		msrc = optfuzz.NewMutationSource(mcfg)
		src = msrc
	case "wide":
		if fl.width != 8 && fl.width != 16 {
			fatal(fmt.Errorf("-source wide needs -width 8 or 16, got %d", fl.width))
		}
		rcfg.ExhaustiveInputBits = fl.width
		if fl.width == 16 && rcfg.MaxInputs < 1<<17 {
			// A single i16 parameter contributes 2^16 concrete values
			// plus the special values; leave headroom so verdicts still
			// close exhaustively instead of degrading to sampling.
			rcfg.MaxInputs = 1 << 17
		}
		src = optfuzz.NewWideSource(optfuzz.WideConfig{
			Width:       fl.width,
			NumInstrs:   fl.instrs,
			MaxFuncs:    fl.n,
			AllowPoison: true,
		})
	default:
		fatal(fmt.Errorf("unknown source %q (want exhaustive, mutate or wide)", fl.source))
	}
	srcName := src.Name()

	c := optfuzz.Campaign{
		Source:      src,
		Refine:      rcfg,
		Pipeline:    pm,
		PipelineCfg: pcfg,
		Workers:     fl.workers,
		NoMemo:      fl.noMemo,
		Reduce:      fl.reduce,
		Seed:        fl.seed,
	}

	var rec *trace.Recorder
	if fl.tracePath != "" {
		rec = trace.NewRecorder(fl.traceBuf)
		c.Trace = rec
		if fl.stallSnapshot == "" {
			fl.stallSnapshot = fl.tracePath + ".stall.json"
		}
	}
	if fl.stallDeadline > 0 {
		c.StallDeadline = fl.stallDeadline
		c.StallSnapshot = fl.stallSnapshot
	}

	var reg *telemetry.Registry
	if fl.metricsPath != "" || fl.debugAddr != "" {
		reg = telemetry.NewRegistry()
		c.Telemetry = reg
	}
	if fl.debugAddr != "" {
		// 0, 0: the default history snapshot interval and ring depth.
		ds, err := telemetry.StartDebugServer(fl.debugAddr, reg, 0, 0, rec)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		endpoints := "/metrics, /metrics.json, /metrics/history, /debug/pprof"
		if rec != nil {
			endpoints += ", /debug/trace"
		}
		fmt.Fprintf(os.Stderr, "tame-fuzz: debug server on http://%s (%s)\n", ds.Addr, endpoints)
	}

	// The campaign header carries the effective RNG seed so a finding
	// can always be replayed; it deliberately omits the worker count,
	// which never changes the stream (the CI determinism gate cmps
	// stdout across worker counts). `-metrics -` reserves stdout for
	// the metric exposition, so the header and the findings yield to
	// stderr there.
	out := io.Writer(os.Stdout)
	if fl.metricsPath == "-" {
		out = os.Stderr
	}

	// With -progress, findings stream out in deterministic order the
	// moment every earlier shard has finished — the report-early path —
	// and a live line tracks throughput on stderr.
	var pl *telemetry.ProgressLine
	var outMu sync.Mutex // serializes the live line against streamed findings
	streamDone := make(chan struct{})
	if fl.progress {
		pl = telemetry.NewProgressLine(os.Stderr, 0)
		ch := make(chan optfuzz.Finding, 16)
		c.Stream = ch
		go func() {
			defer close(streamDone)
			for f := range ch {
				// Clear the live progress line first: when stdout and
				// stderr share a terminal, printing a finding under an
				// active \r-line garbles both. The lock keeps a progress
				// repaint from racing into the middle of the finding.
				outMu.Lock()
				pl.Clear()
				printFinding(out, f, srcName, fl.seed)
				outMu.Unlock()
			}
		}()
		start := time.Now()
		c.Progress = func(p optfuzz.CampaignProgress) {
			rate := float64(p.Funcs) / time.Since(start).Seconds()
			outMu.Lock()
			pl.Update("tame-fuzz: %d/%d shards  %d funcs  %d refuted  %.0f funcs/sec",
				p.ShardsDone, p.Shards, p.Funcs, p.Refuted, rate)
			outMu.Unlock()
		}
	} else {
		close(streamDone)
	}

	fmt.Fprintf(out, "campaign: source=%s seed=%d sem=%s passes=%s\n", srcName, fl.seed, fl.sem, fl.passList)

	start := time.Now()
	st := c.Run()
	elapsed := time.Since(start)
	<-streamDone
	pl.Finish()

	for _, f := range st.Findings {
		printFinding(out, f, srcName, fl.seed)
	}
	perSec := float64(st.Funcs) / elapsed.Seconds()
	fmt.Fprintf(os.Stderr,
		"tame-fuzz: %d funcs validated in %s (%.0f funcs/sec, workers=%d): %d verified, %d refuted, %d inconclusive; memo %d/%d hits (%.1f%%)\n",
		st.Funcs, elapsed.Round(time.Millisecond), perSec, fl.workers,
		st.Verified, st.Refuted, st.Inconclusive,
		st.MemoHits, st.MemoLookups, 100*st.HitRate())
	if st.Epochs > 1 {
		fmt.Fprintf(os.Stderr, "tame-fuzz: %d epochs, corpus %d functions, %d coverage keys\n",
			st.Epochs, st.CorpusSize, st.CoverageKeys)
	}
	if fl.reduce {
		fmt.Fprintf(os.Stderr, "tame-fuzz: reducer: %d findings shrunk in %d steps (%d attempts, %d instructions removed)\n",
			st.ReducedFindings, st.ReduceSteps, st.ReduceAttempts, st.ReduceRemovedInstrs)
	}
	if msrc != nil && fl.corpus != "" {
		if err := optfuzz.SaveCorpus(fl.corpus, msrc.Corpus()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tame-fuzz: corpus: %d functions written to %s\n", len(msrc.Corpus()), fl.corpus)
	}
	if fl.optStats && !fl.noMemo {
		// The memo is shared across all worker shards, so the hit rate
		// above includes cross-shard hits: one worker's derivation
		// serves every other worker's structurally identical candidate.
		fmt.Fprintf(os.Stderr,
			"tame-fuzz: shared memo across %d workers: %d sets resident, %d evictions (second-chance clock); admission on repeat: %d functions admitted, %d doorkeeper entries\n",
			fl.workers, st.MemoSets, st.MemoEvictions, st.MemoAdmissions, st.MemoDoorkeeper)
	}
	if fl.optStats {
		st.Opt.Emit(os.Stderr, true, true)
	}
	if fl.tracePath != "" {
		if err := writeTrace(fl.tracePath, rec); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tame-fuzz: trace: %d events written to %s (%d overwritten by ring wrap)\n",
			len(rec.Events()), fl.tracePath, rec.Dropped())
	}
	if fl.metricsPath != "" {
		if err := reg.Snapshot().WriteFile(fl.metricsPath); err != nil {
			fatal(err)
		}
	}
	if st.Refuted > 0 {
		os.Exit(1)
	}
}

// writeTrace dumps the flight recorder as Chrome trace-event JSON.
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

type poisonOracleFlags struct {
	instrs, n   int
	width       uint
	sem         string
	workers     int
	metricsPath string
}

// runPoisonOracle sweeps the exhaustive function space checking every
// static NeverPoison claim against concrete enumeration — the campaign
// soundness oracle for the dataflow analysis itself, independent of any
// optimization pipeline.
func runPoisonOracle(fl poisonOracleFlags) {
	opts, err := core.SemanticsByName(fl.sem)
	if err != nil {
		fatal(err)
	}
	gen := genConfig(fl.instrs, fl.n, fl.width, opts.Mode)
	po := optfuzz.PoisonOracle{Source: optfuzz.NewExhaustiveSource(gen), Sem: opts, Workers: fl.workers}
	var reg *telemetry.Registry
	if fl.metricsPath != "" {
		reg = telemetry.NewRegistry()
		po.Telemetry = reg
	}

	start := time.Now()
	st := po.Run()
	elapsed := time.Since(start)

	for _, v := range st.Violations {
		fmt.Println(v)
	}
	fmt.Fprintf(os.Stderr,
		"tame-fuzz: poison oracle: %d funcs, %d never-poison claims, %d execs in %s (workers=%d, %d incomplete sweeps): %d violations\n",
		st.Funcs, st.Claims, st.Execs, elapsed.Round(time.Millisecond),
		fl.workers, st.Incomplete, len(st.Violations))
	if fl.metricsPath != "" {
		if err := reg.Snapshot().WriteFile(fl.metricsPath); err != nil {
			fatal(err)
		}
	}
	if len(st.Violations) > 0 {
		os.Exit(1)
	}
}

// genConfig is the exhaustive generator both -validate and
// -poison-oracle sweep.
func genConfig(instrs, n int, width uint, mode core.Mode) optfuzz.Config {
	gen := optfuzz.DefaultConfig(instrs)
	gen.Width = width
	gen.MaxFuncs = n
	if mode == core.Freeze {
		// Undef is not part of the freeze dialect.
		gen.AllowUndef = false
		gen.AllowPoison = true
	}
	return gen
}

func printFinding(w io.Writer, f optfuzz.Finding, source string, seed int64) {
	reduced := ""
	if f.ReduceSteps > 0 {
		reduced = fmt.Sprintf(" reduce-steps=%d", f.ReduceSteps)
	}
	fmt.Fprintf(w, "REFUTED source=%s seed=%d epoch=%d shard=%d index=%d changed-by=%s%s\n%s\n→\n%s\n%s\n\n",
		source, seed, f.Epoch, f.Shard, f.Index,
		strings.Join(f.ChangedBy, ","), reduced, f.Src, f.Tgt, f.Result)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tame-fuzz:", err)
	os.Exit(1)
}
