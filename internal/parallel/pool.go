// Package parallel provides the bounded worker pool and deterministic
// result merging behind the fuzz-and-validate pipeline.
//
// The design constraint, inherited from the §6 experiment, is that a
// parallel campaign must be a pure reordering of the serial one: same
// work items, same per-item results, results observed in the same
// order. The pool therefore never shares mutable state between tasks —
// each task writes only its own result slot — and Map returns results
// in task-index order no matter how the scheduler interleaved the
// workers.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tameir/internal/telemetry"
)

// Workers normalizes a worker-count setting: values below 1 mean one
// worker per CPU.
func Workers(n int) int {
	if n < 1 {
		return runtime.NumCPU()
	}
	return n
}

// Do runs task(w, i) for i in 0..n-1 on up to workers goroutines and
// blocks until all have completed; w is the index of the goroutine
// running the task, so two tasks that run at the same time never share
// it (tame-tv draws one trace track per w). Tasks are claimed in index
// order from a shared atomic counter, so long-running early shards
// overlap with later ones. With an effective worker count of 1
// everything runs inline on the calling goroutine as worker 0 — the
// serial path has zero scheduling overhead, which keeps `-workers 1`
// an honest baseline.
func Do(workers, n int, task func(w, i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			task(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(g, i)
			}
		}(g)
	}
	wg.Wait()
}

// Map runs fn(0..n-1) on the pool and returns the results in index
// order: the merge is deterministic regardless of how the workers were
// scheduled. Each task writes only its own slot, so no locking is
// needed and `go test -race` stays quiet.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	Do(workers, n, func(_, i int) {
		out[i] = fn(i)
	})
	return out
}

// PoolMetrics summarizes one instrumented pool run: how many tasks ran
// on how many workers, aggregate worker busy time and the run's wall
// time. Everything except Tasks is scheduling-dependent by nature.
type PoolMetrics struct {
	Workers int
	Tasks   uint64
	BusyNS  uint64
	WallNS  uint64
}

// Publish folds the counters into reg. Tasks is deterministic (the
// work partition is fixed); the rest is scheduling.
func (m *PoolMetrics) Publish(reg *telemetry.Registry) {
	if m == nil || reg == nil {
		return
	}
	reg.Counter("pool_tasks_total", telemetry.Deterministic, "tasks run on the worker pool").Add(m.Tasks)
	reg.Gauge("pool_workers", telemetry.Scheduling, "worker goroutines in the largest pool run").Set(int64(m.Workers))
	reg.Counter("pool_busy_ns_total", telemetry.Scheduling, "aggregate worker busy time").Add(m.BusyNS)
	reg.Counter("pool_wall_ns_total", telemetry.Scheduling, "pool run wall time").Add(m.WallNS)
}

// MapTimed is Map plus pool instrumentation into pm (which may be nil;
// the timing shims then cost two clock reads per task). Worker
// utilization is BusyNS / (Workers × WallNS).
func MapTimed[T any](workers, n int, fn func(i int) T, pm *PoolMetrics) []T {
	if pm == nil {
		return Map(workers, n, fn)
	}
	out := make([]T, n)
	w := Workers(workers)
	if w > n {
		w = n
	}
	pm.Workers = w
	pm.Tasks += uint64(n)
	start := time.Now()
	var busy atomic.Uint64
	Do(workers, n, func(_, i int) {
		t0 := time.Now()
		out[i] = fn(i)
		busy.Add(uint64(time.Since(t0)))
	})
	pm.BusyNS += busy.Load()
	pm.WallNS += uint64(time.Since(start))
	return out
}
