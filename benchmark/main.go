// Command benchmark measures tameir end to end on four workloads and
// attributes each workload's time to the layers it passes through.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
//	                      [--trace 0|1] [--trace-dir DIR] [--out FILE]
//	bash benchmark/run.sh --compare OLD[,OLD...] NEW[,NEW...]
//
// run.sh builds this package into .bench_build/ and runs it. This
// directory is a Go module of its own (it is not part of the root
// module's `go test ./...`); inside it, `go run . <flags>` and
// `go test .` work too.
//
// A run of one workload is twenty reps, each a fixed amount of work in
// a fresh child process, so every rep pays the cold process-wide caches
// (program cache, lowering cache) a CLI user pays. Every metric reports
// the median of the reps. The amount of work scales with --seconds.
// The workloads, metric names, units and regression bounds are listed
// in BENCHMARK.json at the repository root; README.md explains them.
//
// With --trace 1 a run is one untraced and one traced rep instead: the
// traced rep turns on the span sites the public APIs expose and reports
// the per-layer metrics, and the pair gives the tracing overhead. With
// --trace-dir it also writes DIR/layers.json and a Perfetto timeline
// per workload.
//
// The last line on standard output is a JSON object with the keys
// correct, attempted, failed and metrics. Human-readable tables go to
// standard error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// childEnv carries a repInput to a child process.
const childEnv = "TAMEIR_BENCH_REP"

// reps is the number of reps in an untraced run. The box the benchmark
// was sized on shares its cores, and reps of the same work differ by up
// to a fifth; the median of many short reps steps over the slow ones.
const reps = 20

// repDeadline bounds one workload's reps, so a hung child cannot keep
// the run past its time cap.
const repDeadline = 170 * time.Second

// workload is one benchmark input set.
type workload struct {
	name string
	// unit names the workload's unit of work; perSecond is how many of
	// them one second of a rep's timed region covers on the reference
	// 2-CPU box, and a rep's size is perSecond × seconds / reps.
	unit      string
	perSecond float64
	// prepare, when set, generates the rep input in the parent.
	prepare func(dir string, in *repInput) error
	run     func(repInput) (repResult, error)
}

var workloads = []workload{
	{name: "sweep-freeze-i2", unit: "candidates", perSecond: 19000,
		run: func(in repInput) (repResult, error) { return runSweep(in, false) }},
	{name: "sweep-legacy-i2", unit: "candidates", perSecond: 3000,
		run: func(in repInput) (repResult, error) { return runSweep(in, true) }},
	{name: "tv-cfg-mutants", unit: "functions", perSecond: 2700, prepare: prepareTV, run: runTV},
	{name: "minc-suite", unit: "sweeps", perSecond: 21, run: runMinc},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func prepareTV(dir string, in *repInput) error {
	in.Corpus = filepath.Join(dir, "tv-corpus.ll")
	return makeTVCorpus(in.Corpus, in.Seed, in.Size)
}

func main() {
	if js := os.Getenv(childEnv); js != "" {
		if err := runChild(js, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: rep:", err)
			os.Exit(1)
		}
		return
	}
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// runChild runs the rep described by js and writes its result as JSON.
func runChild(js string, stdout io.Writer) error {
	var in repInput
	if err := json.Unmarshal([]byte(js), &in); err != nil {
		return err
	}
	w, err := findWorkload(in.Workload)
	if err != nil {
		return err
	}
	res, err := w.run(in)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// options are the parent's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	out      string
	workers  int
}

// run parses args and runs the benchmark or the comparison. It returns
// the exit code: 0 when every result was correct (or, with --compare,
// no regression was found), 1 otherwise.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{workers: defaultWorkers}
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "approximate measured seconds per workload; sets the work per rep")
	fs.IntVar(&traceFlag, "trace", 0, "1 = one untraced and one traced rep, reporting per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", "", "with --trace 1, write layers.json and Perfetto timelines here")
	fs.StringVar(&o.out, "out", "", "write the full result (reps, quartiles, environment) to this JSON file")
	cmp := fs.Bool("compare", false, "compare two sides, each an --out file or a comma-separated list: --compare old.json new1.json,new2.json")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	sp, err := loadSpec()
	if err != nil {
		return 2, err
	}
	if *cmp {
		if fs.NArg() != 2 {
			return 2, errors.New("--compare needs two sides of result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), sp, stdout)
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if traceFlag != 0 && traceFlag != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}

	var chosen []workload
	if o.workload == "all" {
		chosen = workloads
	} else {
		w, err := findWorkload(o.workload)
		if err != nil {
			return 2, err
		}
		chosen = []workload{w}
	}
	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return 2, err
		}
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 2, err
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(dir)

	env := stampEnv()
	fmt.Fprintf(stderr, "benchmark: %s, nproc=%d GOMAXPROCS=%d %s, commit %s\n",
		env.CPU, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit)
	file := resultFile{Env: env, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Workloads: map[string]*workloadResult{}}
	layers := map[string]map[string]float64{}
	code := 0
	for _, w := range chosen {
		wr, err := measure(w, o, sp, dir, subprocessRep)
		if err != nil {
			return 2, fmt.Errorf("%s: %w", w.name, err)
		}
		file.Workloads[w.name] = wr
		if o.trace {
			layers[w.name] = wr.Layers
		}
		printTable(stderr, wr, sp, o.trace)
		line, err := json.Marshal(resultLine(wr, sp, o.trace))
		if err != nil {
			return 2, err
		}
		fmt.Fprintln(stdout, string(line))
		if !wr.Correct {
			code = 1
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, file); err != nil {
			return 2, err
		}
	}
	if o.trace && o.traceDir != "" {
		if err := writeJSON(filepath.Join(o.traceDir, "layers.json"), layers); err != nil {
			return 2, err
		}
	}
	return code, nil
}

// repFunc runs one rep and returns its result.
type repFunc func(ctx context.Context, w workload, in repInput) (repResult, error)

// subprocessRep runs the rep in a fresh child process of this binary.
func subprocessRep(ctx context.Context, w workload, in repInput) (repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	cmd := exec.CommandContext(ctx, exe)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	in.StartNS = time.Now().UnixNano()
	js, err := json.Marshal(in)
	if err != nil {
		return repResult{}, err
	}
	cmd.Env = append(os.Environ(), childEnv+"="+string(js))
	if err := cmd.Run(); err != nil {
		return repResult{}, fmt.Errorf("rep process: %w", err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return repResult{}, fmt.Errorf("rep output: %w", err)
	}
	return res, nil
}

// inProcessRep runs the rep in this process (the smoke test).
func inProcessRep(_ context.Context, w workload, in repInput) (repResult, error) {
	in.StartNS = time.Now().UnixNano()
	return w.run(in)
}

// workloadResult is one workload's aggregated run.
type workloadResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Size is the work per rep in SizeUnit; Reps the number of reps and
	// SamplesPerRep the latency samples of each.
	Size          int    `json:"size"`
	SizeUnit      string `json:"size_unit"`
	Reps          int    `json:"reps"`
	SamplesPerRep []int  `json:"samples_per_rep"`
	// Metrics holds every end-to-end metric over the untraced reps.
	Metrics map[string]metricResult `json:"metrics"`
	// Layers holds the traced rep's per-layer metrics.
	Layers     map[string]float64 `json:"layers,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	KnownWrong int                `json:"known_wrong"`
	Failures   []string           `json:"failures,omitempty"`
	Digest     string             `json:"digest"`
	Correct    bool               `json:"correct"`
	Counts     map[string]int     `json:"counts"`
}

// metricResult is one end-to-end metric over a run's reps. Its
// reported value is the median.
type metricResult struct {
	Unit string `json:"unit"`
	summary
}

// measure runs one workload's reps and aggregates them.
func measure(w workload, o options, sp *spec, dir string, rep repFunc) (*workloadResult, error) {
	size := max(1, int(w.perSecond*o.seconds/reps+0.5))
	in := repInput{Workload: w.name, Seed: o.seed, Size: size, Workers: o.workers}
	if w.prepare != nil {
		if err := w.prepare(dir, &in); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), repDeadline)
	defer cancel()
	n := reps
	if o.trace {
		n = 1
	}
	var results []repResult // untraced reps first, then the traced one
	for i := 0; i < n; i++ {
		rin := in
		rin.Reduce = i == 0
		r, err := rep(ctx, w, rin)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	values := map[string][]float64{}
	for _, r := range results {
		for name, v := range endToEnd(r) {
			values[name] = append(values[name], v)
		}
	}
	var layers map[string]float64
	if o.trace {
		tin := in
		tin.Traced, tin.TraceDir, tin.Reduce = true, o.traceDir, true
		traced, err := rep(ctx, w, tin)
		if err != nil {
			return nil, err
		}
		layers = traced.Layers
		layers["trace.overhead_frac"] = ratio(float64(traced.WallNS), float64(results[0].WallNS)) - 1
		results = append(results, traced)
	}

	wr := &workloadResult{
		Workload: w.name, Seed: o.seed, Size: size, SizeUnit: w.unit, Reps: len(results),
		Metrics: map[string]metricResult{}, Layers: layers,
		Digest: results[0].Digest, Counts: results[0].Counts,
	}
	for _, r := range results {
		wr.SamplesPerRep = append(wr.SamplesPerRep, r.Samples)
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.KnownWrong += r.KnownWrong
		wr.Failures = append(wr.Failures, r.Failures...)
		if r.Digest != wr.Digest {
			wr.Failed++
			wr.Failures = append(wr.Failures, fmt.Sprintf("verdict digest %s differs from the first rep's %s", r.Digest, wr.Digest))
		}
	}
	for _, m := range sp.EndToEnd {
		vs, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which the benchmark does not measure", m.Name)
		}
		s := summarize(vs)
		wr.Metrics[m.Name] = metricResult{Unit: m.Unit, summary: s}
	}
	if o.trace {
		for _, m := range sp.PerLayer {
			if _, ok := wr.Layers[m.Name]; !ok {
				return nil, fmt.Errorf("BENCHMARK.json names per-layer metric %q, which the benchmark does not measure", m.Name)
			}
		}
	}
	wr.Correct = wr.Failed == 0
	return wr, nil
}

// endToEnd derives every end-to-end metric from one untraced rep.
func endToEnd(r repResult) map[string]float64 {
	ops := float64(r.Ops)
	return map[string]float64{
		"ops_per_s":       ops / (float64(r.WallNS) / 1e9),
		"op_p50_us":       r.P50US,
		"op_p99_us":       r.P99US,
		"setup_s":         float64(r.SetupNS) / 1e9,
		"peak_rss_mb":     float64(r.PeakRSSKB) / 1024,
		"alloc_kb_per_op": float64(r.AllocBytes) / 1024 / ops,
	}
}

// resultLine is the one-line JSON result: the end-to-end values, or the
// traced rep's per-layer metrics with --trace 1.
func resultLine(wr *workloadResult, sp *spec, traced bool) map[string]any {
	metrics := map[string]any{}
	if traced {
		for _, m := range sp.PerLayer {
			metrics[m.Name] = map[string]any{"value": wr.Layers[m.Name], "unit": m.Unit}
		}
	} else {
		for _, m := range sp.EndToEnd {
			metrics[m.Name] = map[string]any{"value": wr.Metrics[m.Name].Median, "unit": m.Unit}
		}
	}
	return map[string]any{
		"correct":   wr.Correct,
		"attempted": wr.Attempted,
		"failed":    wr.Failed,
		"metrics":   metrics,
	}
}

// printTable writes one workload's results for people.
func printTable(w io.Writer, wr *workloadResult, sp *spec, traced bool) {
	fmt.Fprintf(w, "\n== %s: %d reps of %d %s; attempted %d, failed %d, known-wrong %d, digest %s, correct %v\n",
		wr.Workload, wr.Reps, wr.Size, wr.SizeUnit, wr.Attempted, wr.Failed, wr.KnownWrong, wr.Digest, wr.Correct)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	if traced {
		names := make([]string, 0, len(sp.PerLayer))
		for _, m := range sp.PerLayer {
			names = append(names, m.Name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "   %-36s %14.6g\n", n, wr.Layers[n])
		}
		return
	}
	fmt.Fprintf(w, "   %-16s %-8s %14s %14s %14s\n", "metric", "unit", "median", "q1", "q3")
	for _, m := range sp.EndToEnd {
		r := wr.Metrics[m.Name]
		fmt.Fprintf(w, "   %-16s %-8s %14.6g %14.6g %14.6g\n", m.Name, m.Unit, r.Median, r.Q1, r.Q3)
	}
}

// resultFile is the --out document.
type resultFile struct {
	Env       envStamp                   `json:"env"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// envStamp records where a result was measured.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	Date       string `json:"date"`
}

func stampEnv() envStamp {
	e := envStamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", CPU: "unknown",
		Date: time.Now().UTC().Format(time.RFC3339),
	}
	// Only a repository rooted here counts; a checkout without .git
	// must not pick up an enclosing repository's commit.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
