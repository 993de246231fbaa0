package bench

import (
	"reflect"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
	"tameir/internal/refine"
)

// ValidateParallel over the full space must reproduce the serial E3
// table exactly — rows, verdicts, and first counterexamples — while
// hitting the memo on the repeated source derivations.
func TestValidateParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("validation is slow")
	}
	for _, fixed := range []bool{true, false} {
		serial := Validate(fixed, 1, 0, nil)
		rows, st := ValidateParallel(fixed, 1, 0, 4)
		if !reflect.DeepEqual(serial, rows) {
			t.Errorf("fixed=%v: parallel rows diverge\nserial:   %+v\nparallel: %+v",
				fixed, serial, rows)
		}
		if st.HitRate() < 0.5 {
			t.Errorf("fixed=%v: multi-pass hit rate %.1f%%, want >50%%: the five passes should share source sets",
				fixed, 100*st.HitRate())
		}
	}
}

// benchPair is a representative Check workload: a real InstCombine
// rewrite over i2 with full input-space enumeration.
var benchSrc = ir.MustParseFunc(`define i1 @f(i2 %a, i2 %b) {
entry:
  %add = add nsw i2 %a, %b
  %cmp = icmp sgt i2 %add, %a
  ret i1 %cmp
}`)

var benchTgt = ir.MustParseFunc(`define i1 @f(i2 %a, i2 %b) {
entry:
  %cmp = icmp sgt i2 %b, 0
  ret i1 %cmp
}`)

func BenchmarkRefineCheck(b *testing.B) {
	cfg := refine.DefaultConfig(core.FreezeOptions(), core.FreezeOptions())
	b.Run("nomemo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refine.Check(benchSrc, benchTgt, cfg)
		}
	})
	b.Run("memo", func(b *testing.B) {
		mcfg := cfg
		mcfg.Memo = refine.NewMemo(0)
		for i := 0; i < b.N; i++ {
			refine.Check(benchSrc, benchTgt, mcfg)
		}
	})
	b.Run("oracle-reuse", func(b *testing.B) {
		ocfg := cfg
		ocfg.Oracle = core.NewEnumOracle(ocfg.MaxChoices, ocfg.MaxFanout)
		for i := 0; i < b.N; i++ {
			refine.Check(benchSrc, benchTgt, ocfg)
		}
	})
}

func BenchmarkExhaustive(b *testing.B) {
	cfg := optfuzz.DefaultConfig(2)
	cfg.MaxFuncs = 2000
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optfuzz.Exhaustive(cfg, func(*ir.Func) bool { return true })
		}
	})
	b.Run("sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := 0; s < optfuzz.NumShards(cfg); s++ {
				optfuzz.ExhaustiveShard(cfg, s, func(*ir.Func) bool { return true })
			}
		}
	})
}
