package main

import (
	"tameir/internal/passes"
	"tameir/internal/telemetry"
)

// Per-layer attribution for traced reps. Layer times come from the
// span_wall_ns histograms of a benchmark-owned registry: their sums
// are lossless, unlike the flight recorder's bounded ring. A layer's
// time is reported as its share of the traced rep's worker-busy time,
// so the shares of one rep are comparable across workloads and sum to
// at most 1. The spans of one worker do not overlap, so the sums
// subtract cleanly. The span sites' own cost is in the traced rep too:
// it inflates the spans somewhat and the residual self times
// (optfuzz.engine_self_frac) most, by up to trace.overhead_frac.

// o2Passes lists the -O2 pipeline's distinct pass names in pipeline
// order; each gets a passes.<name>_frac layer metric.
func o2Passes() []string {
	var names []string
	seen := map[string]bool{}
	for _, p := range passes.O2().Passes {
		if !seen[p.Name()] {
			seen[p.Name()] = true
			names = append(names, p.Name())
		}
	}
	return names
}

// newLayers returns every layer metric, at zero except the runtime
// ones taken from the rep's timed region: a layer a workload never
// enters reports 0, so every rep carries the same keys.
func newLayers(res repResult) map[string]float64 {
	l := map[string]float64{}
	for _, k := range []string{
		"optfuzz.generate_frac", "optfuzz.engine_self_frac", "optfuzz.reduce_frac",
		"optfuzz.reduce_checks_per_finding",
		"passes.optimize_frac", "passes.fixpoint_iters_per_func", "passes.analysis_hit_rate",
		"core.compile_frac", "core.progcache_hit_rate", "core.execs_per_check", "core.bytecode_exec_frac",
		"refine.behaviors_src_frac", "refine.behaviors_tgt_frac",
		"refine.memo_hit_rate", "refine.memo_lookups_per_check", "refine.inconclusive_frac",
		"refine.known_wrong_verdicts",
		"parallel.worker_busy_frac", "runtime.gc_cpu_frac", "runtime.alloc_bytes_per_op",
		"minc.frontend_frac", "mi.backend_frac", "minc.ir_instrs", "passes.freeze_pct_ir",
		"mi.object_bytes", "target.sim_cycles", "trace.overhead_frac",
	} {
		l[k] = 0
	}
	for _, p := range o2Passes() {
		l["passes."+p+"_frac"] = 0
	}
	l["runtime.gc_cpu_frac"] = res.GCCPUFrac
	l["runtime.alloc_bytes_per_op"] = ratio(float64(res.AllocBytes), float64(res.Ops))
	return l
}

// snap indexes a registry snapshot by series name.
type snap map[string]telemetry.Sample

func takeSnap(reg *telemetry.Registry) snap {
	s := snap{}
	for _, x := range reg.Snapshot().Samples {
		s[x.Name] = x
	}
	return s
}

// val is a counter or gauge value.
func (s snap) val(name string) float64 { return float64(s[name].Value) }

// spanNS is the total wall time of the spans at path.
func (s snap) spanNS(path string) float64 {
	return float64(s[telemetry.L("span_wall_ns", "span", path)].Sum)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fillCheckerLayers sets the layers every checking workload shares:
// the pass pipeline, the compile and behaviour-enumeration phases of
// refine.Check, and the pass manager's own counters. busyNS is the
// rep's total worker-busy time; the returned value is the time the
// attributed spans cover.
func fillCheckerLayers(l map[string]float64, s snap, busyNS float64) float64 {
	covered := fillPassLayers(l, s, busyNS)
	for layer, span := range map[string]string{
		"core.compile_frac":         "check/compile",
		"refine.behaviors_src_frac": "check/behaviors_src",
		"refine.behaviors_tgt_frac": "check/behaviors_tgt",
	} {
		ns := s.spanNS(span)
		l[layer] = ratio(ns, busyNS)
		covered += ns
	}
	return covered
}

// fillPassLayers sets the per-pass shares and the pass manager's
// fixpoint and analysis-cache counters, and returns the pipeline's
// total time.
func fillPassLayers(l map[string]float64, s snap, busyNS float64) float64 {
	var total float64
	for _, p := range o2Passes() {
		ns := s.spanNS("pass/" + p)
		l["passes."+p+"_frac"] = ratio(ns, busyNS)
		total += ns
	}
	l["passes.optimize_frac"] = ratio(total, busyNS)
	l["passes.fixpoint_iters_per_func"] = ratio(s.val("opt_fixpoint_iters_total"), s.val("opt_funcs_total"))
	hits := s.val("analysis_hits_total")
	l["passes.analysis_hit_rate"] = ratio(hits, hits+s.val("analysis_computes_total"))
	return total
}

// fillEngineLayers sets the execution-engine counters from the checker
// metrics published into the registry.
func fillEngineLayers(l map[string]float64, s snap) {
	l["core.execs_per_check"] = ratio(s.val("check_execs_total"), s.val("check_checks_total"))
	bc := s.val("engine_execs_bytecode_total")
	l["core.bytecode_exec_frac"] = ratio(bc, bc+s.val("engine_execs_closure_total")+s.val("engine_execs_interp_total"))
	hits := s.val("progcache_hits_total")
	l["core.progcache_hit_rate"] = ratio(hits, hits+s.val("progcache_misses_total"))
}
