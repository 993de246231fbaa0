package optfuzz

import (
	"reflect"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/refine"
)

// TestWideSourceSampledStream checks the stride sample: deterministic,
// strictly a subsequence of the exhaustive order, at the right rate.
func TestWideSourceSampledStream(t *testing.T) {
	src := NewWideSource(WideConfig{Width: 8, NumInstrs: 1, Stride: 7, AllowPoison: true})
	if src.Name() != "wide8" {
		t.Fatalf("Name() = %q", src.Name())
	}
	var full []string
	ExhaustiveShard(src.gen, 0, func(f *ir.Func) bool {
		full = append(full, f.String())
		return true
	})
	var sampled []string
	src.Enumerate(0, 0, func(f *ir.Func) bool {
		sampled = append(sampled, f.String())
		return true
	})
	want := (len(full) + 6) / 7
	if len(sampled) != want {
		t.Fatalf("stride 7 over %d candidates emitted %d, want %d", len(full), len(sampled), want)
	}
	for i, s := range sampled {
		if s != full[i*7] {
			t.Fatalf("sample %d is not exhaustive ordinal %d", i, i*7)
		}
	}
	var again []string
	src.Enumerate(0, 0, func(f *ir.Func) bool {
		again = append(again, f.String())
		return true
	})
	if !reflect.DeepEqual(sampled, again) {
		t.Fatal("wide enumeration not repeatable")
	}
	for _, s := range sampled {
		f, err := ir.ParseFunc(s)
		if err != nil {
			t.Fatalf("wide candidate does not parse: %v", err)
		}
		if f.Params[0].Ty.Bits != 8 {
			t.Fatalf("candidate parameter is i%d, want i8", f.Params[0].Ty.Bits)
		}
	}
}

// TestWideCampaignClosesInputs runs a tiny i8 self-refinement campaign
// with the raised exhaustive-input cutoff: every decidable verdict
// must be Verified, and none may degrade to sampling-inconclusive.
func TestWideCampaignClosesInputs(t *testing.T) {
	sem := core.FreezeOptions()
	rcfg := refine.DefaultConfig(sem, sem)
	rcfg.ExhaustiveInputBits = 8
	st := Campaign{
		Source: NewWideSource(WideConfig{Width: 8, NumInstrs: 1, Stride: 211, MaxFuncs: 60, AllowPoison: true}),
		Refine: rcfg,
	}.Run()
	if st.Source != "wide8" {
		t.Fatalf("workload label %q", st.Source)
	}
	if st.Funcs == 0 {
		t.Fatal("wide campaign enumerated nothing")
	}
	if n := st.Verified + st.Refuted + st.Inconclusive; n != st.Funcs {
		t.Fatalf("%d verdicts for %d candidates, want one each", n, st.Funcs)
	}
	if st.Refuted != 0 {
		t.Fatalf("self-refinement refuted %d wide candidates", st.Refuted)
	}
	if st.Verified == 0 {
		t.Fatal("no wide verdict closed exhaustively — ExhaustiveInputBits not honored")
	}
}
