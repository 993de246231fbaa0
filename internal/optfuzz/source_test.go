package optfuzz

import (
	"reflect"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/refine"
)

// TestExhaustiveSourceMatchesGenerator pins the byte-identical
// refactor guarantee at the stream level: the Source adapter must
// reproduce the bare generator's shard structure, capacities, and
// per-shard candidate text exactly.
func TestExhaustiveSourceMatchesGenerator(t *testing.T) {
	gen := DefaultConfig(2)
	gen.MaxFuncs = 500
	src := NewExhaustiveSource(gen)

	if got, want := src.Shards(), NumShards(gen); got != want {
		t.Fatalf("Shards() = %d, want %d", got, want)
	}
	if got, want := src.Budget(), gen.MaxFuncs; got != want {
		t.Fatalf("Budget() = %d, want %d", got, want)
	}
	if got, want := src.Capacities(100), ShardCapacities(gen, 100); !reflect.DeepEqual(got, want) {
		t.Fatalf("Capacities(100) = %v, want %v", got, want)
	}

	var direct []string
	shardGen := gen
	shardGen.MaxFuncs = 30
	for s := 0; s < NumShards(gen); s++ {
		ExhaustiveShard(shardGen, s, func(f *ir.Func) bool {
			direct = append(direct, f.String())
			return true
		})
	}
	var viaSource []string
	for s := 0; s < src.Shards(); s++ {
		src.Enumerate(s, 30, func(f *ir.Func) bool {
			viaSource = append(viaSource, f.String())
			return true
		})
	}
	if !reflect.DeepEqual(direct, viaSource) {
		t.Fatalf("Source stream diverges from ExhaustiveShard: %d vs %d candidates", len(direct), len(viaSource))
	}
}

// TestCampaignExplicitSourceMatchesNil proves the refactor left the
// default path untouched: a campaign given an explicit ExhaustiveSource
// must produce byte-identical results to the legacy Gen-field path.
func TestCampaignExplicitSourceMatchesNil(t *testing.T) {
	gen := DefaultConfig(2)
	gen.AllowUndef = false
	gen.AllowPoison = true
	gen.MaxFuncs = 400
	sem := core.FreezeOptions()
	mk := func(src Source) Stats {
		return Campaign{
			Gen:    gen,
			Source: src,
			Refine: refine.DefaultConfig(sem, sem),
			Transform: func(f *ir.Func) {
				// A deliberately unsound constant-folding stand-in: drop
				// the last non-terminator instruction's operands to zero.
				for _, b := range f.Blocks {
					for _, in := range b.Instrs() {
						if in.Op == ir.OpAdd {
							in.SetArg(0, ir.ConstInt(in.Ty, 0))
							return
						}
					}
				}
			},
			Workers: 2,
		}.Run()
	}
	nilSrc := mk(nil)
	explicit := mk(NewExhaustiveSource(gen))
	// The memo counters are scheduling-dependent at two workers.
	if !reflect.DeepEqual(maskMemo(nilSrc), maskMemo(explicit)) {
		t.Fatalf("explicit ExhaustiveSource diverges from nil-Source default:\nnil: %+v\nexp: %+v", nilSrc, explicit)
	}
	if nilSrc.Source != "exhaustive" || nilSrc.Epochs != 1 {
		t.Fatalf("workload identity: Source=%q Epochs=%d, want exhaustive/1", nilSrc.Source, nilSrc.Epochs)
	}
	if nilSrc.Refuted == 0 {
		t.Fatal("the unsound stand-in transform should refute at least once")
	}
}
