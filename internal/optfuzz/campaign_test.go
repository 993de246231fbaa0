package optfuzz

import (
	"reflect"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/passes"
	"tameir/internal/refine"
)

// TestShardsPartitionEnumeration proves the sharding invariant the
// whole pipeline rests on: concatenating ExhaustiveShard output in
// shard order reproduces Exhaustive output exactly — same functions,
// same order, same count.
func TestShardsPartitionEnumeration(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.AllowPoison = true
	// A representative opcode menu keeps the space small enough for
	// -race while still exercising multi-template shard advance: a
	// plain binop, an attribute-carrying one, icmp (bool-typed, all
	// predicates), select (3 operands), and freeze (1 operand).
	cfg.Opcodes = []ir.Op{ir.OpAdd, ir.OpUDiv, ir.OpICmp, ir.OpSelect, ir.OpFreeze}
	cfg.EnumAttrs = true
	cfg.NumParams = 1

	var serial []string
	serialCount, serialTrunc := Exhaustive(cfg, func(f *ir.Func) bool {
		serial = append(serial, f.String())
		return true
	})
	if serialTrunc {
		t.Fatal("serial enumeration truncated unexpectedly")
	}

	var sharded []string
	total := 0
	for s := 0; s < NumShards(cfg); s++ {
		n, trunc := ExhaustiveShard(cfg, s, func(f *ir.Func) bool {
			sharded = append(sharded, f.String())
			return true
		})
		if trunc {
			t.Fatalf("shard %d truncated unexpectedly", s)
		}
		total += n
	}

	if total != serialCount {
		t.Fatalf("shards yield %d funcs, serial yields %d", total, serialCount)
	}
	if !reflect.DeepEqual(serial, sharded) {
		for i := range serial {
			if i >= len(sharded) || serial[i] != sharded[i] {
				t.Fatalf("divergence at index %d:\nserial:\n%s\nsharded:\n%s",
					i, serial[i], sharded[i])
			}
		}
		t.Fatalf("sharded enumeration longer than serial: %d > %d", len(sharded), len(serial))
	}
}

// TestShardBudgets checks the deterministic MaxFuncs split.
func TestShardBudgets(t *testing.T) {
	got := shardBudgets(10, 4, nil)
	want := []int{3, 3, 2, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shardBudgets(10, 4, nil) = %v, want %v", got, want)
	}
	if got := shardBudgets(0, 4, nil); !reflect.DeepEqual(got, []int{0, 0, 0, 0}) {
		t.Errorf("shardBudgets(0, 4, nil) = %v, want all zero", got)
	}
	sum := 0
	for _, b := range shardBudgets(17, 5, nil) {
		sum += b
	}
	if sum != 17 {
		t.Errorf("shardBudgets(17, 5, nil) sums to %d", sum)
	}

	// With capacities, budget the small shards cannot absorb flows to
	// shards with room: [3,3,2,2] clamps to [1,3,2,2] and the surplus
	// of 2 spreads over the two shards with room, front first.
	got = shardBudgets(10, 4, []int{1, 100, 2, 100})
	want = []int{1, 4, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shardBudgets(10, 4, caps) = %v, want %v", got, want)
	}
	// Roomy capacities must not perturb the historical split.
	got = shardBudgets(10, 4, []int{100, 100, 100, 100})
	want = []int{3, 3, 2, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("roomy caps changed the split: %v, want %v", got, want)
	}
	// A budget above the whole space fills every shard to capacity.
	got = shardBudgets(100, 3, []int{4, 0, 7})
	want = []int{4, 0, 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("oversized budget: %v, want capacities %v", got, want)
	}
}

// TestBudgetedShardingMatchesSerial is the ROADMAP open item: with
// MaxFuncs set, the sharded candidate count must equal the serial one
// even when some shards cannot absorb their even budget share. The
// icmp-only shards below have zero capacity (a 1-instruction function
// must produce a wide value to return), so without the second fill
// pass most of the budget would evaporate.
func TestBudgetedShardingMatchesSerial(t *testing.T) {
	gen := DefaultConfig(1)
	gen.AllowUndef = false
	gen.AllowPoison = true
	gen.Opcodes = []ir.Op{ir.OpICmp, ir.OpAdd}
	gen.MaxFuncs = 20

	serialGen := gen
	serial, _ := Exhaustive(serialGen, func(*ir.Func) bool { return true })
	if serial != gen.MaxFuncs {
		t.Fatalf("serial enumeration yields %d funcs, want the budget %d", serial, gen.MaxFuncs)
	}

	caps := ShardCapacities(gen, gen.MaxFuncs)
	if caps[0] != 0 {
		t.Fatalf("icmp shard has capacity %d, want 0", caps[0])
	}

	st := Campaign{
		Source: NewExhaustiveSource(gen),
		Refine: refine.DefaultConfig(core.FreezeOptions(), core.FreezeOptions()),
	}.Run()
	if st.Funcs != serial {
		t.Fatalf("sharded budgeted campaign checked %d funcs, serial checks %d", st.Funcs, serial)
	}
}

// o2Transforms validates candidates against one named transform: -O2
// over a module holding just the candidate.
func o2Transforms(pcfg *passes.Config) []NamedTransform {
	return []NamedTransform{{Name: "o2", Fn: func(f *ir.Func) {
		m := ir.NewModule()
		m.AddFunc(f)
		passes.O2().Run(m, pcfg)
	}}}
}

func o2Campaign(sem core.Options, pcfg *passes.Config, workers, memoEntries int) Campaign {
	gen := DefaultConfig(2)
	gen.AllowUndef = false
	gen.AllowPoison = true
	gen.MaxFuncs = 600
	return Campaign{
		Source:      NewExhaustiveSource(gen),
		Refine:      refine.DefaultConfig(sem, sem),
		Transforms:  o2Transforms(pcfg),
		Workers:     workers,
		MemoEntries: memoEntries,
	}
}

// TestCampaignDeterministicAcrossWorkers is the tentpole guarantee: a
// parallel campaign reports the same stats and the same findings, in
// the same order, as a serial one.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	sem := core.FreezeOptions()
	base := o2Campaign(sem, passes.DefaultFreezeConfig(), 1, 0)
	ref := base.Run()
	if ref.Funcs == 0 {
		t.Fatal("campaign validated no functions")
	}

	for _, workers := range []int{2, 8} {
		c := base
		c.Workers = workers
		got := c.Run()
		if got.MemoLookups != ref.MemoLookups {
			t.Errorf("workers=%d: %d memo lookups, serial does %d (lookup count is one per behaviour set and must not depend on scheduling)",
				workers, got.MemoLookups, ref.MemoLookups)
		}
		if !reflect.DeepEqual(maskMemo(ref), maskMemo(got)) {
			t.Errorf("workers=%d diverges from serial:\nserial:  %+v\nparallel: %+v",
				workers, summarize(ref), summarize(got))
		}
	}
}

func summarize(s Stats) Stats {
	s.Findings = nil // keep failure output readable; DeepEqual already compared them
	return s
}

// maskMemo zeroes the counters that legitimately depend on scheduling
// when worker shards share one memo: which shard computes a shared set
// first (and therefore who hits, who stores, and what the clock
// evicts) is a race. Verdicts, findings and the lookup count are not.
func maskMemo(s Stats) Stats {
	s.MemoHits, s.MemoEvictions, s.MemoSets = 0, 0, 0
	s.MemoAdmissions, s.MemoSessionReuse, s.MemoDoorkeeper = 0, 0, 0
	return s
}

// TestCampaignPipelineDeterministicAcrossWorkers extends the
// determinism guarantee to Pipeline campaigns with instrumentation on:
// findings, verdict counters, and every merged pass statistic except
// wall time must be identical for any worker count.
func TestCampaignPipelineDeterministicAcrossWorkers(t *testing.T) {
	build := func(workers int) Campaign {
		gen := DefaultConfig(2)
		gen.AllowUndef = false
		gen.AllowPoison = true
		gen.MaxFuncs = 600
		return Campaign{
			Source:      NewExhaustiveSource(gen),
			Refine:      refine.DefaultConfig(core.FreezeOptions(), core.FreezeOptions()),
			Pipeline:    passes.O2().Instrument(),
			PipelineCfg: passes.DefaultFreezeConfig(),
			Workers:     workers,
		}
	}
	ref := build(1).Run()
	if ref.Funcs == 0 {
		t.Fatal("campaign validated no functions")
	}
	if ref.Opt == nil || ref.Opt.Funcs() != ref.Funcs {
		t.Fatalf("pipeline stats not merged: %+v", ref.Opt)
	}

	for _, workers := range []int{2, 8} {
		got := build(workers).Run()
		refCmp, gotCmp := maskMemo(ref), maskMemo(got)
		refCmp.Opt, gotCmp.Opt = nil, nil
		if !reflect.DeepEqual(refCmp, gotCmp) {
			t.Errorf("workers=%d diverges from serial:\nserial:   %+v\nparallel: %+v",
				workers, summarize(refCmp), summarize(gotCmp))
		}
		if got.Opt.Funcs() != ref.Opt.Funcs() || got.Opt.FixpointIters() != ref.Opt.FixpointIters() ||
			got.Opt.Converged() != ref.Opt.Converged() || got.Opt.Analysis() != ref.Opt.Analysis() {
			t.Errorf("workers=%d: pass-manager counters diverge: funcs=%d/%d iters=%d/%d converged=%d/%d analysis=%+v/%+v",
				workers, got.Opt.Funcs(), ref.Opt.Funcs(), got.Opt.FixpointIters(), ref.Opt.FixpointIters(),
				got.Opt.Converged(), ref.Opt.Converged(), got.Opt.Analysis(), ref.Opt.Analysis())
		}
		rs, gs := ref.Opt.PassStats(), got.Opt.PassStats()
		if len(rs) != len(gs) {
			t.Fatalf("workers=%d: %d pass stats vs %d", workers, len(gs), len(rs))
		}
		for i := range rs {
			rs[i].Wall, gs[i].Wall = 0, 0
			if rs[i] != gs[i] {
				t.Errorf("workers=%d: pass %s stats diverge: %+v vs %+v",
					workers, rs[i].Name, gs[i], rs[i])
			}
		}
	}
}

// TestCampaignMemoInvariant: enabling or disabling the memo must not
// change any verdict or finding, only the hit counters — with one
// worker, and with two sharing the memo across shards.
func TestCampaignMemoInvariant(t *testing.T) {
	sem := core.LegacyOptions(core.BranchPoisonNondet)
	pcfg := passes.DefaultLegacyConfig()
	pcfg.Unsound = true

	for _, workers := range []int{1, 2} {
		with := o2Campaign(sem, pcfg, workers, 0).Run()
		without := o2Campaign(sem, pcfg, workers, -1).Run()

		if without.MemoLookups != 0 {
			t.Errorf("workers=%d: memo disabled but %d lookups recorded", workers, without.MemoLookups)
		}
		if with.MemoLookups == 0 {
			t.Errorf("workers=%d: memo enabled but no lookups recorded", workers)
		}
		with, without = maskMemo(with), maskMemo(without)
		with.MemoLookups, without.MemoLookups = 0, 0
		if !reflect.DeepEqual(with, without) {
			t.Errorf("workers=%d: memo changed campaign outcome:\nwith:    %+v\nwithout: %+v",
				workers, summarize(with), summarize(without))
		}
	}
}

// TestCampaignCatchesUnsoundPipeline reproduces the paper's result in
// miniature: the historical (pre-freeze) pass variants miscompile some
// function in the enumerated space, and the campaign finds it.
func TestCampaignCatchesUnsoundPipeline(t *testing.T) {
	sem := core.LegacyOptions(core.BranchPoisonNondet)
	pcfg := passes.DefaultLegacyConfig()
	pcfg.Unsound = true
	gen := DefaultConfig(2)
	gen.MaxFuncs = 2000
	c := Campaign{
		Source:     NewExhaustiveSource(gen),
		Refine:     refine.DefaultConfig(sem, sem),
		Transforms: o2Transforms(pcfg),
		Workers:    4,
	}
	st := c.Run()
	if st.Refuted == 0 {
		t.Fatal("unsound pipeline produced no refuted findings")
	}
	for _, f := range st.Findings {
		if f.Src == "" || f.Tgt == "" || f.Result.Status != refine.Refuted {
			t.Errorf("malformed finding: %+v", f)
		}
	}
}

// TestCampaignNilTransform checks the self-refinement fast path: every
// function refines itself, so a transform-free campaign must verify
// everything it can decide.
func TestCampaignNilTransform(t *testing.T) {
	gen := DefaultConfig(1)
	gen.AllowUndef = false // undef is not part of the freeze dialect
	gen.AllowPoison = true
	gen.MaxFuncs = 0 // unbounded: cover the whole 1-instruction space
	want, _ := Exhaustive(gen, func(*ir.Func) bool { return true })
	c := Campaign{
		Source: NewExhaustiveSource(gen),
		Refine: refine.DefaultConfig(core.FreezeOptions(), core.FreezeOptions()),
	}
	st := c.Run()
	if st.Refuted != 0 {
		t.Fatalf("self-refinement refuted %d functions", st.Refuted)
	}
	if st.Funcs != want {
		t.Fatalf("validated %d funcs, want the full space of %d", st.Funcs, want)
	}
	if st.Source != "exhaustive" || st.Epochs != 1 {
		t.Fatalf("workload identity: Source=%q Epochs=%d, want exhaustive/1", st.Source, st.Epochs)
	}
}
