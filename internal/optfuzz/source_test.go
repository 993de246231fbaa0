package optfuzz

import (
	"reflect"
	"testing"

	"tameir/internal/ir"
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
