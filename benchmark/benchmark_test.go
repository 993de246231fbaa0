package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload in-process at a tiny size: one untraced
// and one traced rep at two workers, plus one untraced rep at one
// worker.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	known, err := parseKnown(knownLL)
	if err != nil {
		t.Fatal(err)
	}
	annotated := 0
	for _, k := range known {
		if k.knownBug != "" {
			annotated++
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			o := options{seed: 1, seconds: 0.1, trace: true, workers: 2}
			wr, err := measure(w, o, sp, dir, inProcessRep)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range sp.EndToEnd {
				if _, ok := wr.Metrics[m.Name]; !ok {
					t.Errorf("end-to-end metric %s missing", m.Name)
				}
			}
			for _, m := range sp.PerLayer {
				if _, ok := wr.Layers[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			// Every workload is free of failures; on tv-cfg-mutants the
			// only wrong verdicts allowed are the documented ones of the
			// pairs annotated with a known bug, which count as KnownWrong.
			if wr.Failed != 0 {
				t.Errorf("failed=%d: %v", wr.Failed, wr.Failures)
			}
			if wr.KnownWrong > wr.Reps*annotated {
				t.Errorf("%d known wrong verdicts over %d reps, but only %d pairs carry a known-bug annotation",
					wr.KnownWrong, wr.Reps, annotated)
			}

			in := repInput{Workload: w.name, Seed: o.seed, Size: wr.Size, Workers: 1}
			if w.prepare != nil {
				if err := w.prepare(dir, &in); err != nil {
					t.Fatal(err)
				}
			}
			serial, err := w.run(in)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Digest != wr.Digest {
				t.Errorf("verdict digest at 1 worker %s, at 2 workers %s", serial.Digest, wr.Digest)
			}
		})
	}
}

// TestCompareCorrectness checks that --compare fails on a rise in the
// share of failed operations and on changed verdicts for a seed, even
// when every metric is unchanged.
func TestCompareCorrectness(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, seed int64, digest string, failed int) string {
		wr := &workloadResult{
			Workload: "minc-suite", Seed: seed, Attempted: 100, Failed: failed,
			Digest: digest, Metrics: map[string]metricResult{},
		}
		for _, m := range sp.EndToEnd {
			wr.Metrics[m.Name] = metricResult{Unit: m.Unit, summary: summarize([]float64{10, 10, 10})}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultFile{Seed: seed, Workloads: map[string]*workloadResult{"minc-suite": wr}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1, "aaaa", 0)
	for _, c := range []struct {
		name, newArg string
		want         int
	}{
		{"same", write("same.json", 1, "aaaa", 0), 0},
		{"other seed", write("seed2.json", 2, "bbbb", 0), 0},
		{"digest", write("digest.json", 1, "bbbb", 0), 1},
		{"failed", write("failed.json", 1, "aaaa", 1), 1},
	} {
		var out strings.Builder
		code, err := compareFiles(base, c.newArg, sp, &out)
		if err != nil {
			t.Fatal(err)
		}
		if code != c.want {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.want, out.String())
		}
	}
}

// TestParseKnownAnnotations checks that a known-bug annotation must
// name the wrong verdict it excuses.
func TestParseKnownAnnotations(t *testing.T) {
	pair := "\ndefine i2 @p_src(i2 %x) {\nentry:\n  ret i2 %x\n}\ndefine i2 @p_tgt(i2 %x) {\nentry:\n  ret i2 %x\n}\n"
	for _, c := range []struct {
		check string
		ok    bool
	}{
		{"; check p sem=freeze expect=verified", true},
		{"; check p sem=freeze expect=verified known-bug=b:refuted", true},
		{"; check p sem=freeze expect=verified known-bug=b", false},
		{"; check p sem=freeze expect=verified known-bug=b:verified", false},
		{"; check p sem=freeze expect=verified known-bug=b:wrong", false},
	} {
		_, err := parseKnown(c.check + pair)
		if (err == nil) != c.ok {
			t.Errorf("%q: err=%v, want ok=%v", c.check, err, c.ok)
		}
	}
}

// TestVerdict checks how --compare classifies a metric's change.
func TestVerdict(t *testing.T) {
	m := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	steady := func(v float64) summary { return summarize([]float64{v * 0.99, v, v, v * 1.01}) }
	noisy := summarize([]float64{50, 100, 150, 200})
	for _, c := range []struct {
		name     string
		old, cur summary
		want     string
	}{
		{"same", steady(100), steady(100), "unchanged"},
		{"within bound", steady(100), steady(90), "worse"},
		{"beyond bound", steady(100), steady(70), "REGRESSION"},
		{"gain", steady(100), steady(110), "improved"},
		{"noisy", steady(100), noisy, "unresolved"},
		{"noisy but separated", noisy, steady(300), "improved"},
	} {
		if got := verdict(c.old, c.cur, m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
