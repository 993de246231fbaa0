package core

import "tameir/internal/telemetry"

// This file is the only telemetry touchpoint in core. The engine's hot
// loop never sees the registry: Env.Metrics accumulates plain counters
// and the helpers below fold them in once per batch, so telemetry
// costs nothing per step (and literally nothing when reg is nil).

// Publish folds the engine counters into reg. class is chosen by the
// caller: Deterministic when the counters cover exactly one shard's
// work (the campaign partition fixes them), Scheduling when a shared
// memo or shared executor makes the split timing-dependent.
func (m EngineMetrics) Publish(reg *telemetry.Registry, class telemetry.Class) {
	if reg == nil {
		return
	}
	reg.Counter("engine_execs_total", class, "top-level program executions").Add(m.Execs)
	reg.Counter("engine_steps_total", class, "instructions stepped").Add(m.Steps)
	reg.Counter("engine_cycle_exits_total", class, "executions stopped early as provably divergent").Add(m.CycleExits)
	reg.Counter("engine_fuel_exits_total", class, "executions that ran out of fuel").Add(m.FuelExits)
	reg.Counter("engine_merge_exits_total", class, "executions stopped at a state an earlier choice path reached").Add(m.MergeExits)
	reg.Counter("pool_frames_pooled_total", class, "inner-call frames served from the pool").Add(m.FramesPooled)
	reg.Counter("pool_frames_allocated_total", class, "inner-call frames freshly allocated").Add(m.FramesAllocated)
	reg.Counter("engine_execs_interp_total", class, "executions on the tree-walking interpreter").Add(m.InterpExecs)
	reg.Counter("engine_execs_closure_total", class, "executions on the compile-once closure engine").Add(m.ClosureExecs)
	// Per-engine exec histograms: one observation per publish batch, so
	// the distribution tracks batch sizes per engine (a zero batch still
	// registers the series — dashboards want the engine visible at 0).
	for _, t := range []struct {
		name string
		n    uint64
	}{
		{"engine_tier_execs_interp", m.InterpExecs},
		{"engine_tier_execs_closure", m.ClosureExecs},
	} {
		h := reg.Histogram(t.name, class, "per-publish execution batch size on this engine")
		if t.n > 0 {
			h.Observe(t.n)
		}
	}
}

// Add folds o into s (shard-order merge): counters and resident sizes
// sum; Capacity keeps the largest.
func (s *ProgramCacheStats) Add(o ProgramCacheStats) {
	s.Size += o.Size
	if o.Capacity > s.Capacity {
		s.Capacity = o.Capacity
	}
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Recompiles += o.Recompiles
}

// Publish folds the cache counters into reg. Same class rule as
// EngineMetrics.Publish: per-shard caches are deterministic, the
// process-shared cache is not.
func (s ProgramCacheStats) Publish(reg *telemetry.Registry, class telemetry.Class) {
	if reg == nil {
		return
	}
	reg.Counter("progcache_hits_total", class, "program cache lookup hits").Add(s.Hits)
	reg.Counter("progcache_misses_total", class, "program cache lookup misses (compiles)").Add(s.Misses)
	reg.Counter("progcache_evictions_total", class, "programs evicted by the clock sweep").Add(s.Evictions)
	reg.Counter("progcache_recompiles_total", class, "stale-text recompiles on the verified path").Add(s.Recompiles)
	reg.Gauge("progcache_size", class, "resident compiled programs").Add(int64(s.Size))
}
