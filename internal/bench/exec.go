package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"time"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
	"tameir/internal/parallel"
	"tameir/internal/passes"
	"tameir/internal/refine"
)

// ExecRow is one line of the execution-engine experiment: a §6
// validation sweep run on one engine with one worker count. Rows come
// in engine pairs (interpreted / compiled) over identical pre-built
// (src, tgt) pairs; a row is valid only if it produces byte-identical
// behaviour sets and verdicts to the interpreted single-worker
// baseline, which BehaviorHash certifies.
type ExecRow struct {
	Mode    string // "freeze" or "legacy"
	Engine  string // "interpreted" or "compiled"
	Workers int

	Funcs        int
	Checks       int
	Verified     int
	Refuted      int
	Inconclusive int

	// Execs counts choice paths (each one oracle resolution of one
	// input), the unit the engines compete on. The compiled engine
	// merges paths that reach a state an earlier path reached, so it
	// runs fewer executions than it counts here.
	Execs        uint64
	Elapsed      time.Duration
	ChecksPerSec float64
	ExecsPerSec  float64

	// BehaviorHash folds a per-pair FNV-64a digest (every behaviour
	// set the check consumed, in deterministic order, plus the
	// verdict) over all pairs in pair order. The per-pair fold makes
	// the hash independent of how a worker pool interleaved the pairs,
	// so every row of a mode must agree exactly.
	BehaviorHash string

	// Speedup (compiled rows) is the interpreted same-workers row's
	// elapsed time over this row's. TwinOK is whether the hash and
	// verdict counters match the interpreted workers=1 baseline
	// (trivially true on the baseline itself).
	Speedup float64 `json:",omitempty"`
	TwinOK  bool
}

// execPair is one pre-built validation problem. Building pairs happens
// once, outside the timed region, so the rows measure execution and
// nothing else — and every engine sees pointer-identical IR.
type execPair struct {
	src, tgt *ir.Func
}

// buildExecPairs generates the §6 candidate set for one semantics and
// transforms a private clone of each candidate with InstCombine.
func buildExecPairs(fixed bool, numInstrs, maxFuncs int) ([]execPair, core.Options) {
	var sem core.Options
	var pcfg *passes.Config
	gen := optfuzz.DefaultConfig(numInstrs)
	gen.EnumAttrs = true
	gen.MaxFuncs = maxFuncs
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
	var pairs []execPair
	optfuzz.Exhaustive(gen, func(f *ir.Func) bool {
		src := ir.CloneFunc(f)
		tgt := ir.CloneFunc(f)
		passes.RunPass(passes.InstCombine{}, tgt, pcfg)
		pairs = append(pairs, execPair{src: src, tgt: tgt})
		return true
	})
	return pairs, sem
}

// measureExecEngine sweeps every pair through refine.Check on one
// engine over a pool of `workers` goroutines, memoization off, and
// digests everything observable. Pairs are split into contiguous
// shards, one per worker, each with private Config state (oracle,
// exec counter, digest buffer); per-pair digests land in a shared
// slice indexed by pair, so the fold over them is pair-ordered and
// deterministic no matter how the pool was scheduled. The sweep runs
// reps times — the freeze campaign is cheap enough that a single
// sweep finishes in a few milliseconds, too short to time reliably —
// with every rep timed separately and doing identical work (no
// caching across reps). Elapsed is the median rep scaled by reps, the
// same bursty-load defense the E4–E7 harness uses, so one noisy rep
// cannot skew the ratios.
func measureExecEngine(pairs []execPair, sem core.Options, mode, engine string, workers, reps int) ExecRow {
	row := ExecRow{Mode: mode, Engine: engine, Workers: workers, Funcs: len(pairs)}
	cfg := refine.DefaultConfig(sem, sem)
	cfg.Interpret = engine == "interpreted"
	h := fnv.New64a()
	digests := make([]uint64, len(pairs))
	statuses := make([]refine.Status, len(pairs))
	elapsed := make([]time.Duration, reps)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		shardExecs := parallel.Map(workers, workers, func(shard int) uint64 {
			lo := shard * len(pairs) / workers
			hi := (shard + 1) * len(pairs) / workers
			sc := cfg
			sc.Oracle = core.NewEnumOracle(cfg.MaxChoices, cfg.MaxFanout)
			var m refine.CheckMetrics
			sc.Metrics = &m
			// Digest the sets' components directly instead of
			// rendering set.String(): the order-independent combine
			// over Rets hashes the same information as the sorted
			// render, without the hook dominating the very profile
			// the rows are measuring.
			var ph uint64
			sc.BehaviorHook = func(set refine.BehaviorSet) {
				ph = fnvUint64(ph, digestBehaviorSet(set))
			}
			for i := lo; i < hi; i++ {
				ph = fnvOffset64
				r := refine.Check(pairs[i].src, pairs[i].tgt, sc)
				digests[i] = fnvByte(ph, byte(r.Status))
				statuses[i] = r.Status
			}
			return m.Execs
		})
		elapsed[rep] = time.Since(start)
		for _, e := range shardExecs {
			row.Execs += e
		}
		var buf [8]byte
		for i := range pairs {
			binary.LittleEndian.PutUint64(buf[:], digests[i])
			h.Write(buf[:])
			row.Checks++
			switch statuses[i] {
			case refine.Verified:
				row.Verified++
			case refine.Refuted:
				row.Refuted++
			default:
				row.Inconclusive++
			}
		}
	}
	sort.Slice(elapsed, func(i, j int) bool { return elapsed[i] < elapsed[j] })
	row.Elapsed = elapsed[len(elapsed)/2] * time.Duration(reps)
	row.BehaviorHash = fmt.Sprintf("%016x", h.Sum64())
	if s := row.Elapsed.Seconds(); s > 0 {
		row.ChecksPerSec = float64(row.Checks) / s
		row.ExecsPerSec = float64(row.Execs) / s
	}
	return row
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(s string) uint64 {
	d := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		d ^= uint64(s[i])
		d *= fnvPrime64
	}
	return d
}

func fnvByte(d uint64, b byte) uint64 {
	d ^= uint64(b)
	d *= fnvPrime64
	return d
}

func fnvUint64(d, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		d = fnvByte(d, byte(v>>(8*i)))
	}
	return d
}

// digestBehaviorSet folds a behaviour set into 64 bits: flag bits, the
// XOR of the per-return-value hashes (Rets is a set, so the combine
// must be order-independent), and the set size. Two sets digest equal
// iff they hold the same flags and return values — the same predicate
// comparing sorted String renders would certify.
func digestBehaviorSet(set refine.BehaviorSet) uint64 {
	var flags uint64
	if set.UB {
		flags |= 1
	}
	if set.Poison {
		flags |= 2
	}
	if set.Undef {
		flags |= 4
	}
	if set.Void {
		flags |= 8
	}
	if set.Incomplete {
		flags |= 16
	}
	var rets uint64
	for _, k := range set.Rets.Keys() {
		rets ^= fnvString(k)
	}
	d := uint64(fnvOffset64)
	d ^= flags
	d *= fnvPrime64
	d ^= rets
	d *= fnvPrime64
	d ^= uint64(set.Rets.Len())
	d *= fnvPrime64
	return d
}

// ExecEngines lists the E12 engine rows in measurement order. The
// interpreted row doubles as the behaviour baseline.
var ExecEngines = []string{"interpreted", "compiled"}

// MeasureExec runs the engine experiment over both semantics, crossed
// with every worker count in workersList (nil or empty means
// single-threaded only) and both engines. Rows are grouped mode-major,
// then workers, then engine; every row's hash and verdict counters are
// checked against the mode's interpreted workers=1 baseline, so the
// table certifies engine equivalence and pool determinism at once.
func MeasureExec(numInstrs, maxFuncs int, workersList []int) []ExecRow {
	if len(workersList) == 0 {
		workersList = []int{1}
	}
	var rows []ExecRow
	for _, m := range []struct {
		fixed bool
		name  string
		reps  int
	}{{true, "freeze", 5}, {false, "legacy", 1}} {
		pairs, sem := buildExecPairs(m.fixed, numInstrs, maxFuncs)
		modeRows := make([]ExecRow, 0, len(workersList)*len(ExecEngines))
		for _, w := range workersList {
			interp := measureExecEngine(pairs, sem, m.name, "interpreted", w, m.reps)
			compiled := measureExecEngine(pairs, sem, m.name, "compiled", w, m.reps)
			if compiled.Elapsed > 0 {
				compiled.Speedup = float64(interp.Elapsed) / float64(compiled.Elapsed)
			}
			modeRows = append(modeRows, interp, compiled)
		}
		baseline := modeRows[0]
		for i := range modeRows {
			r := &modeRows[i]
			r.TwinOK = r.BehaviorHash == baseline.BehaviorHash &&
				r.Execs == baseline.Execs &&
				r.Verified == baseline.Verified &&
				r.Refuted == baseline.Refuted &&
				r.Inconclusive == baseline.Inconclusive
		}
		rows = append(rows, modeRows...)
	}
	return rows
}

// ReportExec renders the engine×workers table.
func ReportExec(w io.Writer, rows []ExecRow) {
	fmt.Fprintln(w, "== E12: execution engine (interpreted vs compiled, by worker count) ==")
	fmt.Fprintf(w, "%-7s %-12s %3s %7s %8s %9s %10s %12s %17s %8s %5s\n",
		"mode", "engine", "wrk", "funcs", "checks", "refuted", "execs", "elapsed", "behavior-hash", "speedup", "twin")
	for _, r := range rows {
		speedup := ""
		if r.Engine != "interpreted" {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
		}
		twin := "FAIL"
		if r.TwinOK {
			twin = "ok"
		}
		fmt.Fprintf(w, "%-7s %-12s %3d %7d %8d %9d %10d %12s %17s %8s %5s\n",
			r.Mode, r.Engine, r.Workers, r.Funcs, r.Checks, r.Refuted, r.Execs,
			r.Elapsed.Round(time.Millisecond), r.BehaviorHash, speedup, twin)
	}
	fmt.Fprintf(w, "execs count choice paths, identical across rows because every engine drives the same oracle\n")
	fmt.Fprintf(w, "enumeration (the compiled engine merges paths that reach an earlier path's state, so it runs\n")
	fmt.Fprintf(w, "fewer of them); behavior-hash folds per-pair digests in pair order, so equal hashes mean\n")
	fmt.Fprintf(w, "byte-identical results regardless of worker count.\n")
}
