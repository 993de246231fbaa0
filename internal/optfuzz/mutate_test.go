package optfuzz

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"tameir/internal/analysis"
	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/passes"
	"tameir/internal/refine"
)

func mutationCampaign(workers int) Campaign {
	sem := core.LegacyOptions(core.BranchPoisonNondet)
	pcfg := passes.DefaultLegacyConfig()
	pcfg.Unsound = true
	// Sized for the race detector: CFG mutants with loops cost ~1
	// refine.Check per second under -race on one core, so the three
	// worker counts below must share a small candidate stream. The
	// full-size determinism cmp (epochs 3, 60/epoch, workers 2 vs 8)
	// runs in `make ci` via the ci-workload target instead.
	mcfg := DefaultMutationConfig(42)
	mcfg.Mode = ir.VerifyLegacy
	mcfg.Epochs = 2
	mcfg.PerEpoch = 30
	mcfg.SeedFuncs = 20
	mcfg.Shards = 6
	return Campaign{
		Source:         NewMutationSource(mcfg),
		Refine:         refine.DefaultConfig(sem, sem),
		Pipeline:       passes.O2(),
		PipelineCfg:    pcfg,
		Workers:        workers,
		Reduce:         true,
		ReduceMaxSteps: 8,
	}
}

// TestMutationDeterministicAcrossWorkers is the coverage-guided
// analogue of the exhaustive determinism guarantee: same seed, any
// worker count, byte-identical reduced findings and corpus state.
func TestMutationDeterministicAcrossWorkers(t *testing.T) {
	var base Stats
	for i, w := range []int{1, 2, 8} {
		st := mutationCampaign(w).Run()
		// Memo statistics are scheduling-dependent by contract; blank
		// them before comparing.
		st.MemoHits, st.MemoLookups, st.MemoEvictions, st.MemoSets = 0, 0, 0, 0
		st.MemoAdmissions, st.MemoDoorkeeper = 0, 0
		st.Opt = nil // pass-stats include wall-clock timings
		if i == 0 {
			base = st
			continue
		}
		if !reflect.DeepEqual(base.Findings, st.Findings) {
			t.Fatalf("workers=%d findings diverge from workers=1 (%d vs %d)", w, len(st.Findings), len(base.Findings))
		}
		bs, ss := base, st
		bs.Findings, ss.Findings = nil, nil
		if !reflect.DeepEqual(bs, ss) {
			t.Fatalf("workers=%d stats diverge:\nw1: %+v\nw%d: %+v", w, bs, w, ss)
		}
	}
	if base.Source != "mutate" || base.Epochs != 2 {
		t.Fatalf("workload identity: %q/%d", base.Source, base.Epochs)
	}
	if n := base.Verified + base.Refuted + base.Inconclusive; n != base.Funcs {
		t.Fatalf("%d verdicts for %d candidates, want one each", n, base.Funcs)
	}
	if base.CorpusSize == 0 || base.CoverageKeys == 0 {
		t.Fatalf("corpus never grew: size=%d coverage=%d", base.CorpusSize, base.CoverageKeys)
	}
	if base.Refuted == 0 {
		t.Fatal("unsound pipeline produced no refuted findings under mutation")
	}
	if base.ReducedFindings == 0 {
		t.Fatal("reducer never ran despite Reduce: true and refuted findings")
	}
	for _, f := range base.Findings {
		if f.Result.Status != refine.Refuted {
			t.Fatalf("finding not refuted after reduction: %+v", f)
		}
		if f.ReduceSteps > 0 && f.OrigSrc == "" {
			t.Fatalf("reduced finding lost its original source: %+v", f)
		}
	}
}

// TestMutantsVerifierValid walks every epoch's candidate stream by
// hand and checks the mutator contract: every emitted function passes
// the dialect verifier and SSA dominance checking, and later epochs
// actually grow control flow beyond the straight-line seeds.
func TestMutantsVerifierValid(t *testing.T) {
	mcfg := DefaultMutationConfig(7)
	mcfg.Mode = ir.VerifyLegacy
	mcfg.Epochs = 4
	mcfg.PerEpoch = 120
	mcfg.SeedFuncs = 30
	src := NewMutationSource(mcfg)

	sawCFG, sawPhi := false, false
	for epoch := 0; epoch < src.Epochs(); epoch++ {
		var fb []Feedback
		for s := 0; s < src.Shards(); s++ {
			idx := 0
			src.Enumerate(s, 0, func(f *ir.Func) bool {
				if err := ir.Verify(f, ir.VerifyLegacy); err != nil {
					t.Fatalf("epoch %d shard %d: invalid mutant: %v\n%s", epoch, s, err, f)
				}
				if err := analysis.VerifySSA(f); err != nil {
					t.Fatalf("epoch %d shard %d: SSA violation: %v\n%s", epoch, s, err, f)
				}
				if len(f.Blocks) > 1 {
					sawCFG = true
				}
				for _, b := range f.Blocks {
					if len(b.Phis()) > 0 {
						sawPhi = true
					}
				}
				// Synthetic novelty: everything is interesting, so the
				// corpus fills and mutation proceeds from rich parents.
				fb = append(fb, Feedback{Shard: s, Index: idx, Src: f.String(), Behavior: uint64(idx + 1)})
				idx++
				return true
			})
		}
		src.Advance(epoch, fb)
	}
	if !sawCFG {
		t.Fatal("no mutant ever grew control flow")
	}
	if !sawPhi {
		t.Fatal("no mutant ever introduced a phi")
	}
	if src.CorpusStats().Size == 0 {
		t.Fatal("corpus empty after full run")
	}
}

// TestMutationSourceSameSeedSameStream pins stream-level determinism
// without a campaign: two sources with the same config emit the same
// candidates, and different seeds diverge.
func TestMutationSourceSameSeedSameStream(t *testing.T) {
	stream := func(seed int64) []string {
		mcfg := DefaultMutationConfig(seed)
		mcfg.Epochs = 2
		mcfg.PerEpoch = 50
		mcfg.SeedFuncs = 20
		src := NewMutationSource(mcfg)
		var out []string
		for epoch := 0; epoch < src.Epochs(); epoch++ {
			var fb []Feedback
			for s := 0; s < src.Shards(); s++ {
				idx := 0
				src.Enumerate(s, 0, func(f *ir.Func) bool {
					out = append(out, f.String())
					fb = append(fb, Feedback{Shard: s, Index: idx, Src: f.String(), Behavior: uint64(len(out))})
					idx++
					return true
				})
			}
			src.Advance(epoch, fb)
		}
		return out
	}
	a, b := stream(1), stream(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	c := stream(2)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams (rng not wired through)")
	}
}

// TestCorpusRoundTrip checks SaveCorpus/LoadCorpus through the real
// parser, including the rename to unique symbols.
func TestCorpusRoundTrip(t *testing.T) {
	mcfg := DefaultMutationConfig(3)
	mcfg.Epochs = 2
	mcfg.PerEpoch = 30
	mcfg.SeedFuncs = 25
	src := NewMutationSource(mcfg)
	var fb []Feedback
	for s := 0; s < src.Shards(); s++ {
		idx := 0
		src.Enumerate(s, 0, func(f *ir.Func) bool {
			fb = append(fb, Feedback{Shard: s, Index: idx, Src: f.String(), Behavior: uint64(idx + 100*s + 1)})
			idx++
			return true
		})
	}
	src.Advance(0, fb)
	corpus := src.Corpus()
	if len(corpus) == 0 {
		t.Fatal("no corpus to round-trip")
	}
	path := t.TempDir() + "/corpus.ll"
	if err := SaveCorpus(path, corpus); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(corpus) {
		t.Fatalf("round-trip lost functions: %d vs %d", len(loaded), len(corpus))
	}
	for i, f := range loaded {
		if want := fmt.Sprintf("c%d", i); f.Nam != want {
			t.Fatalf("func %d named %q, want %q", i, f.Nam, want)
		}
		// Body must survive the rename round-trip byte-for-byte.
		orig := ir.CloneFunc(corpus[i])
		orig.Nam = f.Nam
		if f.String() != orig.String() {
			t.Fatalf("func %d body changed across round-trip:\n%s\nvs\n%s", i, f, orig)
		}
	}
}

// TestLoadCorpusBadFunction: a corpus file with a malformed function
// fails to load with the file's path and the parser's position.
func TestLoadCorpusBadFunction(t *testing.T) {
	path := t.TempDir() + "/corpus.ll"
	text := "define i2 @c0(i2 %a) {\nentry:\n  ret i2 %a\n}\n\n" +
		"define i2 @c1(i2 %a) {\nentry:\n  %x = xor i2 %a, %b\n  ret i2 %x\n}\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCorpus(path)
	want := "corpus " + path + ": ir: line 8:19: undefined value %b in @c1"
	if err == nil || err.Error() != want {
		t.Fatalf("LoadCorpus error %v, want %q", err, want)
	}
}
