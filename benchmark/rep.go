package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/refine"
	"tameir/internal/telemetry/trace"
)

// defaultWorkers is the closed-loop client count every workload runs
// with: one per CPU of the 2-CPU box the benchmark was sized on, in one
// process, GOMAXPROCS left at its default.
const defaultWorkers = 2

// repInput is everything one rep needs. The parent passes it to a
// child process JSON-encoded in the childEnv variable, so every rep
// starts with the same cold process-wide caches a CLI user gets.
type repInput struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Size is the rep's fixed amount of work in the workload's unit
	// (candidates, functions or suite sweeps).
	Size int `json:"size"`
	// Workers is the number of closed-loop clients.
	Workers int `json:"workers"`
	// Traced turns on the span sites and the flight recorder.
	Traced bool `json:"traced"`
	// TraceDir, when set on a traced rep, receives a Perfetto file.
	TraceDir string `json:"trace_dir,omitempty"`
	// Corpus is the input file the parent generated (tv-cfg-mutants).
	Corpus string `json:"corpus,omitempty"`
	// Reduce runs the reducer on every refutation after the timed region
	// (tv-cfg-mutants: the first rep of a run, and the traced rep).
	Reduce bool `json:"reduce,omitempty"`
	// StartNS is the wall clock (Unix ns) at which the parent started
	// the child; set-up time runs from there to the first timed
	// operation.
	StartNS int64 `json:"start_ns"`
}

// repResult is one rep's measurements and correctness record.
type repResult struct {
	Ops     int   `json:"ops"`
	WallNS  int64 `json:"wall_ns"`
	SetupNS int64 `json:"setup_ns"`
	// Per-operation latency percentiles over Samples operations.
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
	Samples int     `json:"samples"`

	AllocBytes uint64  `json:"alloc_bytes"`
	PeakRSSKB  int64   `json:"peak_rss_kb"`
	GCCPUFrac  float64 `json:"gc_cpu_frac"`

	// Attempted counts operations plus post-run checks; Failed counts
	// the ones that failed. KnownWrong counts wrong verdicts on pairs
	// annotated with a documented checker bug.
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	KnownWrong int      `json:"known_wrong"`
	Failures   []string `json:"failures,omitempty"`
	// Digest is an order-independent hash of every verdict (or object
	// size and checksum) the rep produced.
	Digest string         `json:"digest"`
	Counts map[string]int `json:"counts"`
	// Layers holds the per-layer metrics (traced reps only).
	Layers map[string]float64 `json:"layers,omitempty"`
}

// fail records n failed operations or checks under one description.
func (r *repResult) fail(n int, format string, args ...any) {
	if n == 0 {
		return
	}
	r.Failed += n
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// meter brackets a rep's timed region: wall time, allocation, GC CPU
// and set-up time. Everything it reads is taken outside the region.
type meter struct {
	start     time.Time
	setupNS   int64
	alloc0    uint64
	gc0, cpu0 float64
}

// startTimed is called immediately before the first timed operation.
func startTimed(in repInput) *meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := &meter{alloc0: ms.TotalAlloc}
	m.gc0, m.cpu0 = gcCPU()
	m.start = time.Now()
	m.setupNS = m.start.UnixNano() - in.StartNS
	return m
}

// stop closes the timed region and fills the timing fields of r from
// ops and the per-operation latencies (ns, sorted in place).
func (m *meter) stop(r *repResult, ops int, lat []int64) {
	r.WallNS = time.Since(m.start).Nanoseconds()
	r.SetupNS = m.setupNS
	r.Ops = ops
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.AllocBytes = ms.TotalAlloc - m.alloc0
	gc, cpu := gcCPU()
	if cpu > m.cpu0 {
		r.GCCPUFrac = (gc - m.gc0) / (cpu - m.cpu0)
	}
	r.PeakRSSKB = peakRSSKB(ms.Sys)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	r.Samples = len(lat)
	r.P50US = percentileUS(lat, 0.50)
	r.P99US = percentileUS(lat, 0.99)
}

// gcCPU returns the process's cumulative GC CPU seconds and its used
// (non-idle) CPU seconds.
func gcCPU() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// peakRSSKB reads the process's VmHWM. Where /proc is missing it falls
// back to the runtime's total reservation, which bounds it from above.
func peakRSSKB(sys uint64) int64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err == nil {
					return kb
				}
			}
		}
	}
	return int64(sys / 1024)
}

// digest hashes lines in the given order into a short hex string.
// Callers produce lines in a fixed order (input index, shard order), so
// the digest does not depend on which worker ran what.
func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// closedLoop runs body(w, i) for every i in [0, n) on workers
// goroutines (w is the worker's index), each taking the next i as soon
// as its previous one is done, and returns when all are done.
func closedLoop(workers, n int, body func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				body(w, i)
			}
		}()
	}
	wg.Wait()
}

// sampleHash is the seeded hash that decides whether item index of a
// stream (a sweep shard, or the tv-cfg-mutants pool) is sampled.
func sampleHash(seed int64, stream, index int) uint64 {
	return splitmix64(splitmix64(splitmix64(uint64(seed))^uint64(stream)) ^ uint64(index))
}

// splitmix64 is the SplitMix64 finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// reproduceText parses a finding's printed pair and replays it with
// reproduce.
func reproduceText(srcText, tgtText string, ce *refine.CounterExample, opts core.Options) error {
	src, err := ir.ParseFunc(srcText)
	if err != nil {
		return fmt.Errorf("parse src: %w", err)
	}
	tgt, err := ir.ParseFunc(tgtText)
	if err != nil {
		return fmt.Errorf("parse tgt: %w", err)
	}
	return reproduce(src, tgt, ce, opts)
}

// reproduce replays a counterexample on the reference tree-walking
// interpreter: both behaviour sets must match the ones the compiled
// engines reported, and they must still violate refinement.
func reproduce(src, tgt *ir.Func, ce *refine.CounterExample, opts core.Options) error {
	if ce == nil {
		return fmt.Errorf("refutation without a counterexample")
	}
	cfg := refine.DefaultConfig(opts, opts)
	cfg.Interpret = true
	sb := refine.Behaviors(src, ce.Args, opts, cfg)
	tb := refine.Behaviors(tgt, ce.Args, opts, cfg)
	if sb.String() != ce.Src.String() || tb.String() != ce.Tgt.String() {
		return fmt.Errorf("interpreter gives src=%s tgt=%s, checker reported %s", sb, tb, ce)
	}
	if ok, reason := refine.Refines(sb, tb); ok || strings.HasPrefix(reason, "inconclusive") {
		return fmt.Errorf("interpreter does not refute %s (%s)", ce, reason)
	}
	return nil
}

// writePerfetto saves a traced rep's flight recording as
// <TraceDir>/<workload>.perfetto.json.
func writePerfetto(in repInput, rec *trace.Recorder) error {
	if in.TraceDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(in.TraceDir, in.Workload+".perfetto.json"))
	if err != nil {
		return err
	}
	if err := rec.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
