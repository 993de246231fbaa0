package main

import (
	"fmt"
	"time"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
	"tameir/internal/passes"
	"tameir/internal/refine"
	"tameir/internal/telemetry"
	"tameir/internal/telemetry/trace"
)

// sampledSource is the sweep workloads' candidate stream: the §6
// exhaustive enumeration of 3-instruction i2 functions, of which it
// keeps a seeded one-in-two sample, so each seed checks a different
// set of candidates of the same shape. It also times the campaign from
// outside: each call of emit is one candidate's full trip through the
// campaign engine (clone, -O2, refine.Check, bookkeeping), and the
// time in Enumerate outside emit is generation.
type sampledSource struct {
	gen    optfuzz.Config
	seed   int64
	budget int
	// Per shard; each shard is enumerated by one goroutine at a time.
	lat   [][]int64
	genNS []int64
	// rec, when set, receives one span per candidate on its shard's
	// track.
	rec *trace.Recorder
}

func newSampledSource(gen optfuzz.Config, seed int64, budget int) *sampledSource {
	gen.MaxFuncs = 0
	n := optfuzz.NumShards(gen)
	return &sampledSource{
		gen: gen, seed: seed, budget: budget,
		lat: make([][]int64, n), genNS: make([]int64, n),
	}
}

func (s *sampledSource) Name() string               { return "sampled-exhaustive" }
func (s *sampledSource) Shards() int                { return len(s.lat) }
func (s *sampledSource) Budget() int                { return s.budget }
func (s *sampledSource) Capacities(limit int) []int { return nil }

func (s *sampledSource) Enumerate(shard, max int, emit func(*ir.Func) bool) (int, bool) {
	start := time.Now()
	var inEmit int64
	kept, index := 0, 0
	_, truncated := optfuzz.ExhaustiveShard(s.gen, shard, func(f *ir.Func) bool {
		i := index
		index++
		if sampleHash(s.seed, shard, i)&1 != 0 {
			return true
		}
		t0 := time.Now()
		ok := emit(f)
		d := time.Since(t0)
		s.rec.Complete(shard, "candidate", t0, d)
		inEmit += d.Nanoseconds()
		s.lat[shard] = append(s.lat[shard], d.Nanoseconds())
		kept++
		return ok && (max <= 0 || kept < max)
	})
	s.genNS[shard] = time.Since(start).Nanoseconds() - inEmit
	return kept, truncated
}

// runSweep is sweep-freeze-i2 (legacy false) or sweep-legacy-i2: the
// campaign tame-fuzz runs for `-validate -sem freeze|legacy -instrs 3
// -workers 2` (fixed passes, -O2, default memo and tier) over the
// sampled stream.
func runSweep(in repInput, legacy bool) (repResult, error) {
	opts := core.FreezeOptions()
	pcfg := passes.DefaultFreezeConfig()
	gen := optfuzz.DefaultConfig(3)
	if legacy {
		opts = core.LegacyOptions(core.BranchPoisonNondet)
		pcfg = passes.DefaultLegacyConfig()
		pcfg.Unsound = false
	} else {
		gen.AllowUndef = false
		gen.AllowPoison = true
	}
	pm := passes.O2()
	pm.Instrument()
	src := newSampledSource(gen, in.Seed, in.Size)
	c := optfuzz.Campaign{
		Source:      src,
		Refine:      refine.DefaultConfig(opts, opts),
		Pipeline:    pm,
		PipelineCfg: pcfg,
		Workers:     in.Workers,
		Seed:        in.Seed,
	}
	// A traced rep turns on the campaign's own span sites. The flight
	// recorder stays off the campaign: its per-compile instants land
	// inside the compile spans and would skew them.
	var reg *telemetry.Registry
	if in.Traced {
		reg = telemetry.NewRegistry()
		src.rec = trace.NewRecorder(0)
		for s := 0; s < src.Shards(); s++ {
			src.rec.SetTrackName(s, fmt.Sprintf("shard %d", s))
		}
		c.Telemetry, c.TracePhases = reg, true
	}

	m := startTimed(in)
	st := c.Run()
	var lat []int64
	for _, l := range src.lat {
		lat = append(lat, l...)
	}
	var res repResult
	m.stop(&res, st.Verified+st.Refuted+st.Inconclusive, lat)

	res.Counts = map[string]int{
		"candidates": st.Funcs, "verified": st.Verified,
		"refuted": st.Refuted, "inconclusive": st.Inconclusive,
	}
	lines := []string{fmt.Sprintf("verified=%d refuted=%d inconclusive=%d", st.Verified, st.Refuted, st.Inconclusive)}
	res.Attempted = res.Ops
	if !legacy {
		// Fixed passes under freeze semantics verify everything (§6,
		// E3): any other verdict is wrong.
		res.fail(st.Refuted+st.Inconclusive, "freeze sweep: %d refuted, %d inconclusive; want all verified", st.Refuted, st.Inconclusive)
	} else {
		res.fail(st.Inconclusive, "legacy sweep: %d inconclusive verdicts", st.Inconclusive)
	}
	for _, f := range st.Findings {
		lines = append(lines, fmt.Sprintf("%d/%d %s\n%s\n%s", f.Shard, f.Index, f.Result, f.Src, f.Tgt))
		res.Attempted++
		if err := reproduceText(f.Src, f.Tgt, f.Result.CE, opts); err != nil {
			res.fail(1, "shard %d index %d: %v", f.Shard, f.Index, err)
		}
	}
	res.Digest = digest(lines)

	if in.Traced {
		res.Layers = sweepLayers(reg, src, st, res)
		if err := writePerfetto(in, src.rec); err != nil {
			return res, err
		}
	}
	return res, nil
}

// sweepLayers attributes a traced sweep rep. The pool's busy time is
// the denominator; the campaign engine's self time is what the shard
// tasks spent outside generation, the pass pipeline and the checker's
// phases (clone, the rest of refine.Check, verdict bookkeeping, pool
// hand-off, and the span sites themselves).
func sweepLayers(reg *telemetry.Registry, src *sampledSource, st optfuzz.Stats, res repResult) map[string]float64 {
	s := takeSnap(reg)
	l := newLayers(res)
	busy := s.val("pool_busy_ns_total")
	var gen float64
	for _, ns := range src.genNS {
		gen += float64(ns)
	}
	covered := fillCheckerLayers(l, s, busy)
	fillEngineLayers(l, s)
	l["optfuzz.generate_frac"] = ratio(gen, busy)
	l["optfuzz.engine_self_frac"] = ratio(busy-gen-covered, busy)
	checks := s.val("check_checks_total")
	l["refine.memo_hit_rate"] = st.HitRate()
	l["refine.memo_lookups_per_check"] = ratio(float64(st.MemoLookups), checks)
	l["refine.inconclusive_frac"] = ratio(float64(st.Inconclusive), checks)
	l["parallel.worker_busy_frac"] = ratio(busy, s.val("pool_workers")*s.val("pool_wall_ns_total"))
	return l
}
