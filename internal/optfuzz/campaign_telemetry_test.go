package optfuzz

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tameir/internal/core"
	"tameir/internal/passes"
	"tameir/internal/refine"
	"tameir/internal/telemetry"
	"tameir/internal/telemetry/trace"
)

// TestCampaignTelemetryDeterministicAcrossWorkers is the telemetry
// acceptance gate: the deterministic section of a campaign's metric
// snapshot must be byte-identical for any worker count, exactly like
// its findings.
func TestCampaignTelemetryDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (Stats, *telemetry.Registry) {
		reg := telemetry.NewRegistry()
		c := o2Campaign(core.FreezeOptions(), passes.DefaultFreezeConfig(), workers, false)
		c.Telemetry = reg
		return c.Run(), reg
	}

	ref, refReg := run(1)
	if ref.Funcs == 0 {
		t.Fatal("campaign validated no functions")
	}
	refText := refReg.Snapshot().DeterministicText()

	// The deterministic section must carry the campaign verdicts and
	// the checker counters.
	for _, want := range []string{
		"campaign_funcs_total", "campaign_verified_total",
		"check_checks_total", "check_inputs_total", "check_set_size_bucket",
	} {
		if !strings.Contains(refText, want) {
			t.Errorf("deterministic exposition lacks %s:\n%s", want, refText)
		}
	}
	// With the shared memo enabled, everything memo-adjacent must NOT
	// sit in the deterministic section.
	for _, reject := range []string{"memo_hits_total", "check_sets_computed_total", "engine_steps_total"} {
		if strings.Contains(refText, reject) {
			t.Errorf("deterministic exposition leaks scheduling-dependent %s", reject)
		}
	}

	kv, err := telemetry.ParseText(strings.NewReader(refText))
	if err != nil {
		t.Fatalf("deterministic exposition does not parse: %v", err)
	}
	if got := kv["campaign_funcs_total"]; got != int64(ref.Funcs) {
		t.Errorf("campaign_funcs_total = %d, Stats.Funcs = %d", got, ref.Funcs)
	}
	if got := kv["campaign_refuted_total"]; got != int64(ref.Refuted) {
		t.Errorf("campaign_refuted_total = %d, Stats.Refuted = %d", got, ref.Refuted)
	}

	for _, workers := range []int{2, 8} {
		st, reg := run(workers)
		if text := reg.Snapshot().DeterministicText(); text != refText {
			t.Errorf("workers=%d: deterministic telemetry diverges from serial:\nserial:\n%s\nparallel:\n%s",
				workers, refText, text)
		}
		// Scheduling-side sums that are still partition-fixed: the
		// computed+memo-hit total equals the behaviour sets consumed.
		full := reg.Snapshot()
		computed, _ := full.Get("check_sets_computed_total")
		hits, _ := full.Get("check_sets_memo_hits_total")
		refFull := refReg.Snapshot()
		refComputed, _ := refFull.Get("check_sets_computed_total")
		refHits, _ := refFull.Get("check_sets_memo_hits_total")
		if computed.Value+hits.Value != refComputed.Value+refHits.Value {
			t.Errorf("workers=%d: consumed behaviour sets %d+%d != serial %d+%d",
				workers, computed.Value, hits.Value, refComputed.Value, refHits.Value)
		}
		_ = st
	}
}

// TestCampaignStreamOrdering: findings streamed over Campaign.Stream
// from a parallel run must arrive in exactly the deterministic
// (shard, index) order a serial unstreamed run reports — and the
// streamed run must not also retain them in Stats.Findings.
func TestCampaignStreamOrdering(t *testing.T) {
	sem := core.LegacyOptions(core.BranchPoisonNondet)
	pcfg := passes.DefaultLegacyConfig()
	pcfg.Unsound = true
	build := func(workers int) Campaign {
		gen := DefaultConfig(2)
		gen.MaxFuncs = 2000
		return Campaign{
			Source:      NewExhaustiveSource(gen),
			Refine:      refine.DefaultConfig(sem, sem),
			Pipeline:    passes.O2(),
			PipelineCfg: pcfg,
			Workers:     workers,
		}
	}

	ref := build(1).Run()
	if ref.Refuted == 0 {
		t.Fatal("unsound pipeline produced no findings to stream")
	}

	ch := make(chan Finding, 4)
	var streamed []Finding
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := range ch {
			streamed = append(streamed, f)
		}
	}()
	c := build(8)
	c.Stream = ch
	st := c.Run()
	<-done

	if len(st.Findings) != 0 {
		t.Errorf("streamed campaign retained %d findings in Stats; streaming is the memory bound", len(st.Findings))
	}
	if st.Refuted != ref.Refuted {
		t.Fatalf("streamed run refuted %d, serial %d", st.Refuted, ref.Refuted)
	}
	if !reflect.DeepEqual(streamed, ref.Findings) {
		if len(streamed) != len(ref.Findings) {
			t.Fatalf("streamed %d findings, serial reports %d", len(streamed), len(ref.Findings))
		}
		for i := range streamed {
			if !reflect.DeepEqual(streamed[i], ref.Findings[i]) {
				t.Fatalf("finding %d out of order: streamed (shard %d, index %d), serial (shard %d, index %d)",
					i, streamed[i].Shard, streamed[i].Index, ref.Findings[i].Shard, ref.Findings[i].Index)
			}
		}
	}
}

// TestCampaignProgress: the Progress callback sees monotone counters
// and a final forced report whose totals match the campaign result.
func TestCampaignProgress(t *testing.T) {
	var reports []CampaignProgress
	c := o2Campaign(core.FreezeOptions(), passes.DefaultFreezeConfig(), 4, false)
	c.Progress = func(p CampaignProgress) { reports = append(reports, p) }
	c.ProgressEvery = time.Nanosecond // fire on every candidate
	st := c.Run()

	if len(reports) == 0 {
		t.Fatal("progress callback never fired")
	}
	var prev CampaignProgress
	for i, p := range reports {
		if p.Funcs < prev.Funcs || p.ShardsDone < prev.ShardsDone {
			t.Fatalf("progress regressed at report %d: %+v after %+v", i, p, prev)
		}
		prev = p
	}
	last := reports[len(reports)-1]
	if last.Funcs != uint64(st.Funcs) || last.Verified != uint64(st.Verified) ||
		last.Refuted != uint64(st.Refuted) || last.Inconclusive != uint64(st.Inconclusive) {
		t.Errorf("final progress %+v does not match campaign stats funcs=%d verified=%d refuted=%d inconclusive=%d",
			last, st.Funcs, st.Verified, st.Refuted, st.Inconclusive)
	}
	if last.ShardsDone != last.Shards {
		t.Errorf("final progress reports %d/%d shards done", last.ShardsDone, last.Shards)
	}
}

// TestCampaignTraceProvenance: a traced campaign must explain every
// finding — each Finding carries a Provenance and the recorder holds
// exactly one pinned "finding" instant per finding, regardless of how
// hot the per-shard rings ran. This is the invariant `make ci-trace`
// asserts with tame-trace.
func TestCampaignTraceProvenance(t *testing.T) {
	sem := core.LegacyOptions(core.BranchPoisonNondet)
	pcfg := passes.DefaultLegacyConfig()
	pcfg.Unsound = true
	gen := DefaultConfig(2)
	gen.MaxFuncs = 2000
	rec := trace.NewRecorder(0)
	c := Campaign{
		Source:      NewExhaustiveSource(gen),
		Refine:      refine.DefaultConfig(sem, sem),
		Pipeline:    passes.O2(),
		PipelineCfg: pcfg,
		Workers:     4,
		Trace:       rec,
		Seed:        7,
	}
	st := c.Run()
	if st.Refuted == 0 {
		t.Fatal("unsound pipeline produced no findings")
	}
	for i, f := range st.Findings {
		if f.Prov == nil {
			t.Fatalf("finding %d has no provenance", i)
		}
		if f.Prov.Seed != 7 || f.Prov.Source == "" || f.Prov.Tier != "closure" {
			t.Errorf("finding %d provenance incomplete: %+v", i, *f.Prov)
		}
	}
	expr := fmt.Sprintf("instants(finding)==%d, spans(campaign/s)>0, counter(findings)==%d",
		st.Refuted, st.Refuted)
	if err := telemetry.CheckTrace(expr, rec.Events()); err != nil {
		t.Error(err)
	}
	// Each pinned finding instant must carry the coordinates needed to
	// replay it: shard, epoch, and the campaign seed.
	for _, ev := range rec.Events() {
		if ev.Name != "finding" {
			continue
		}
		for _, key := range []string{"shard", "epoch", "seed", "source", "tier"} {
			if ev.Arg(key) == "" {
				t.Fatalf("finding instant lacks %q: %+v", key, ev)
			}
		}
		if got := ev.Arg("tier"); got != "closure" {
			t.Fatalf("finding instant names engine %q, want closure: %+v", got, ev)
		}
	}
}
