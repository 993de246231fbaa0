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
// in engine triplets (interpreted / compiled closures / bytecode VM)
// over identical pre-built (src, tgt) pairs; a row is valid only if it
// produces byte-identical behaviour sets and verdicts to the
// interpreted single-worker baseline, which BehaviorHash certifies.
type ExecRow struct {
	Mode    string // "freeze" or "legacy"
	Engine  string // "interpreted", "compiled" or "bytecode"
	Workers int

	Funcs        int
	Checks       int
	Verified     int
	Refuted      int
	Inconclusive int

	// Execs counts individual function executions (each one oracle
	// resolution of one input), the unit the engines actually compete
	// on.
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

	// Speedup (non-interpreted rows) is the interpreted same-workers
	// row's elapsed time over this row's. SpeedupVsClosure (bytecode
	// rows) is this row's ExecsPerSec over the compiled same-workers
	// row's — the tier-2 payoff in isolation. TwinOK is whether the
	// hash and verdict counters match the interpreted workers=1
	// baseline (trivially true on the baseline itself).
	Speedup          float64 `json:",omitempty"`
	SpeedupVsClosure float64 `json:",omitempty"`
	TwinOK           bool
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

// execEngineCfg maps an engine row name onto a refine.Config: the
// interpreter, the closure engine (tiering pinned off), or the
// bytecode VM (promoted immediately).
func execEngineCfg(cfg *refine.Config, engine string) {
	switch engine {
	case "interpreted":
		cfg.Interpret = true
	case "compiled":
		cfg.Tier = core.TierPolicy{Mode: core.TierClosure}
	case "bytecode":
		cfg.Tier = core.TierPolicy{Mode: core.TierBytecode}
	default:
		panic("bench: unknown exec engine " + engine)
	}
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
	execEngineCfg(&cfg, engine)
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
			var execs uint64
			sc.ExecCount = &execs
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
			return execs
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
var ExecEngines = []string{"interpreted", "compiled", "bytecode"}

// ExecEnginesForTier maps a -tier setting onto the E12 engine rows to
// measure: lower tiers drop the rows above them, and the interpreted
// baseline always stays (it anchors TwinOK).
func ExecEnginesForTier(tier string) ([]string, error) {
	switch tier {
	case "off":
		return ExecEngines[:1], nil
	case "closure":
		return ExecEngines[:2], nil
	case "", "auto", "bytecode":
		return ExecEngines, nil
	}
	return nil, fmt.Errorf("bad tier %q (want off, closure, auto or bytecode)", tier)
}

// MeasureExec runs the engine-tier experiment over both semantics,
// crossed with every worker count in workersList (nil or empty means
// single-threaded only) and every engine in engines (nil means
// ExecEngines). Rows are grouped mode-major, then workers, then
// engine; every row's hash and verdict counters are checked against
// the mode's interpreted workers=1 baseline, so the table certifies
// engine equivalence and pool determinism at once.
func MeasureExec(numInstrs, maxFuncs int, workersList []int, engines []string) []ExecRow {
	if len(workersList) == 0 {
		workersList = []int{1}
	}
	if len(engines) == 0 {
		engines = ExecEngines
	}
	var rows []ExecRow
	for _, m := range []struct {
		fixed bool
		name  string
		reps  int
	}{{true, "freeze", 5}, {false, "legacy", 1}} {
		pairs, sem := buildExecPairs(m.fixed, numInstrs, maxFuncs)
		modeRows := make([]ExecRow, 0, len(workersList)*len(engines))
		for _, w := range workersList {
			interp, closure := -1, -1
			for _, engine := range engines {
				modeRows = append(modeRows, measureExecEngine(pairs, sem, m.name, engine, w, m.reps))
				r := &modeRows[len(modeRows)-1]
				switch engine {
				case "interpreted":
					interp = len(modeRows) - 1
				case "compiled":
					closure = len(modeRows) - 1
				}
				if engine != "interpreted" && interp >= 0 && r.Elapsed > 0 {
					r.Speedup = float64(modeRows[interp].Elapsed) / float64(r.Elapsed)
				}
				if engine == "bytecode" && closure >= 0 && modeRows[closure].ExecsPerSec > 0 {
					r.SpeedupVsClosure = r.ExecsPerSec / modeRows[closure].ExecsPerSec
				}
			}
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
	fmt.Fprintln(w, "== E12: execution engine (interpreted vs compiled vs bytecode, by worker count) ==")
	fmt.Fprintf(w, "%-7s %-12s %3s %7s %8s %9s %10s %12s %17s %8s %8s %5s\n",
		"mode", "engine", "wrk", "funcs", "checks", "refuted", "execs", "elapsed", "behavior-hash", "speedup", "vs-clos", "twin")
	for _, r := range rows {
		speedup, vsClosure := "", ""
		if r.Engine != "interpreted" {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
		}
		if r.Engine == "bytecode" {
			vsClosure = fmt.Sprintf("%.2fx", r.SpeedupVsClosure)
		}
		twin := "FAIL"
		if r.TwinOK {
			twin = "ok"
		}
		fmt.Fprintf(w, "%-7s %-12s %3d %7d %8d %9d %10d %12s %17s %8s %8s %5s\n",
			r.Mode, r.Engine, r.Workers, r.Funcs, r.Checks, r.Refuted, r.Execs,
			r.Elapsed.Round(time.Millisecond), r.BehaviorHash, speedup, vsClosure, twin)
	}
	fmt.Fprintf(w, "execs are identical across rows because every engine drives the same oracle enumeration;\n")
	fmt.Fprintf(w, "behavior-hash folds per-pair digests in pair order, so equal hashes mean byte-identical results\n")
	fmt.Fprintf(w, "regardless of worker count; vs-clos is the bytecode tier's throughput over the closure engine.\n")
}
