package refine

import (
	"tameir/internal/core"
	"tameir/internal/telemetry"
)

// CheckMetrics accumulates validator counters. It is plain (non-atomic)
// state owned by one goroutine — campaigns give each shard its own and
// merge in shard order — and publishes into a telemetry registry once
// per batch via Publish.
type CheckMetrics struct {
	// Checks counts Check calls; Inputs counts input tuples swept.
	// Both are pure functions of the work partition.
	Checks uint64
	Inputs uint64

	// SetsComputed / SetsMemoHit split behaviour-set consumption by
	// provenance. Under a shared cross-shard memo the split depends on
	// scheduling (which worker computes a set first); the SUM is
	// deterministic, and SetSize observes every consumed set so its
	// distribution is deterministic too.
	SetsComputed uint64
	SetsMemoHit  uint64

	// Execs counts the choice paths enumerated: executions, where a
	// run the compiled engine stopped at an earlier path's state counts
	// every path below it. Memo hits contribute nothing, so this is
	// scheduling-dependent whenever the memo is shared. Engine.Execs
	// counts the engine runs that covered them.
	Execs uint64

	// SetSize is the |behaviour set| distribution over every set
	// consumed: concrete return values plus one per UB/poison/undef/
	// void flag.
	SetSize telemetry.LocalHist

	// Compiles counts the programs Check and Behaviors compiled. Check
	// compiles a side on its first memo miss, so this is scheduling-
	// dependent whenever the memo is shared, like the computed/memo-hit
	// split.
	Compiles uint64

	// Engine accumulates the executors' counters (steps, frames).
	Engine core.EngineMetrics
}

// setSize is the histogram measure of a behaviour set.
func setSize(b BehaviorSet) uint64 {
	n := uint64(b.Rets.Len())
	for _, f := range []bool{b.UB, b.Poison, b.Undef, b.Void} {
		if f {
			n++
		}
	}
	return n
}

// observe records one consumed behaviour set.
func (m *CheckMetrics) observe(b BehaviorSet, memoHit bool, execs uint64) {
	if m == nil {
		return
	}
	if memoHit {
		m.SetsMemoHit++
	} else {
		m.SetsComputed++
		m.Execs += execs
	}
	m.SetSize.Observe(setSize(b))
}

// Add folds o into m (shard-order merge).
func (m *CheckMetrics) Add(o *CheckMetrics) {
	m.Checks += o.Checks
	m.Inputs += o.Inputs
	m.SetsComputed += o.SetsComputed
	m.SetsMemoHit += o.SetsMemoHit
	m.Execs += o.Execs
	m.Compiles += o.Compiles
	for i, c := range o.SetSize.Buckets {
		m.SetSize.Buckets[i] += c
	}
	m.SetSize.Sum += o.SetSize.Sum
	m.Engine.Add(o.Engine)
}

// Publish folds the counters into reg. Checks, Inputs, and the
// set-size distribution are Deterministic unconditionally; the
// computed/memo-hit split, the exec and compile counts, and the engine
// counters take memoClass — pass Deterministic when no memo (or a private
// per-shard memo) is in play and Scheduling when a shared cross-shard
// memo makes the split a race.
func (m *CheckMetrics) Publish(reg *telemetry.Registry, memoClass telemetry.Class) {
	if m == nil || reg == nil {
		return
	}
	reg.Counter("check_checks_total", telemetry.Deterministic, "refinement checks run").Add(m.Checks)
	reg.Counter("check_inputs_total", telemetry.Deterministic, "input tuples swept").Add(m.Inputs)
	var counts [telemetry.HistBuckets]uint64
	var n uint64
	for i, c := range m.SetSize.Buckets {
		counts[i] = c
		n += c
	}
	if n > 0 {
		reg.Histogram("check_set_size", telemetry.Deterministic, "behaviour-set sizes consumed").
			AddBuckets(&counts, m.SetSize.Sum)
	}
	reg.Counter("check_sets_computed_total", memoClass, "behaviour sets enumerated").Add(m.SetsComputed)
	reg.Counter("check_sets_memo_hits_total", memoClass, "behaviour sets served by the memo").Add(m.SetsMemoHit)
	reg.Counter("check_execs_total", memoClass, "choice paths enumerated, merged ones included").Add(m.Execs)
	reg.Counter("check_compiles_total", memoClass, "programs compiled for behaviour enumeration").Add(m.Compiles)
	m.Engine.Publish(reg, memoClass)
}
