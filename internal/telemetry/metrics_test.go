package telemetry

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", Deterministic, "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("x_size", Deterministic, "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	h := r.Histogram("x_ns", Scheduling, "a histogram")
	for _, v := range []uint64{0, 1, 2, 3, 4, 100, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("hist count = %d, want 7", h.Count())
	}
	if h.Sum() != 0+1+2+3+4+100+(1<<40) {
		t.Fatalf("hist sum = %d", h.Sum())
	}
	// Resolving the same name again returns the same metric.
	if r.Counter("x_total", Deterministic, "a counter").Value() != 5 {
		t.Fatal("second resolve lost state")
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("x", Deterministic, "")
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil-registry counter recorded")
	}
	r.Gauge("g", Deterministic, "").Set(3)
	r.Histogram("h", Scheduling, "").Observe(9)
	r.Merge(NewRegistry())
	if s := r.Snapshot(); len(s.Samples) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
	var sc *Scope
	sp := sc.Start("x")
	sp.End() // must not panic
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", Deterministic, "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("m", Deterministic, "")
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v uint64
		b int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 31, 31}, {1<<31 + 1, 32}, {1 << 62, 32},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.b {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.b)
		}
	}
}

func TestLabelCanonicalization(t *testing.T) {
	a := L("m", "b", "2", "a", "1")
	b := L("m", "a", "1", "b", "2")
	want := `m{a="1",b="2"}`
	if a != want || b != want {
		t.Fatalf("L not canonical: %q vs %q, want %q", a, b, want)
	}
	if L("m") != "m" {
		t.Fatal("L without labels changed the name")
	}
}

func TestMergeIsOrderInsensitiveSum(t *testing.T) {
	build := func(seed int64, n int) *Registry {
		r := NewRegistry()
		rng := rand.New(rand.NewSource(seed))
		c := r.Counter("c_total", Deterministic, "")
		h := r.Histogram("h", Deterministic, "")
		g := r.Gauge("g", Deterministic, "")
		for i := 0; i < n; i++ {
			c.Add(uint64(rng.Intn(10)))
			h.Observe(uint64(rng.Intn(1000)))
			g.Add(int64(rng.Intn(5)))
		}
		return r
	}
	shards := []*Registry{build(1, 100), build(2, 50), build(3, 75)}

	merge := func(order []int) Snapshot {
		total := NewRegistry()
		for _, i := range order {
			total.Merge(shards[i])
		}
		return total.Snapshot()
	}
	var bufA, bufB bytes.Buffer
	if err := merge([]int{0, 1, 2}).WriteText(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := merge([]int{2, 0, 1}).WriteText(&bufB); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Fatalf("merge order changed exposition:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}
}

func TestTextExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("campaign_funcs_total", Deterministic, "functions generated").Add(128)
	r.Counter(L("pass_runs_total", "pass", "gvn"), Deterministic, "").Add(12)
	r.Gauge("memo_sets", Scheduling, "resident behaviour sets").Set(42)
	h := r.Histogram("check_set_size", Deterministic, "behavior-set sizes")
	h.Observe(1)
	h.Observe(3)
	h.Observe(300)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "# == deterministic ==") || !strings.Contains(text, "# == scheduling ==") {
		t.Fatalf("missing class sections:\n%s", text)
	}
	got, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, text)
	}
	checks := map[string]int64{
		"campaign_funcs_total":             128,
		`pass_runs_total{pass="gvn"}`:      12,
		"memo_sets":                        42,
		"check_set_size_count":             3,
		"check_set_size_sum":               304,
		`check_set_size_bucket{le="1"}`:    1,
		`check_set_size_bucket{le="4"}`:    2,
		`check_set_size_bucket{le="+Inf"}`: 3,
	}
	for k, want := range checks {
		if got[k] != want {
			t.Errorf("%s = %d, want %d\n%s", k, got[k], want, text)
		}
	}
}

func TestJSONSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", Deterministic, "help a").Add(9)
	r.Histogram("b", Scheduling, "").Observe(17)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ParseJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := snap.Get("a_total")
	if !ok || s.Value != 9 || s.Class != "deterministic" || s.Help != "help a" {
		t.Fatalf("a_total sample wrong: %+v ok=%v", s, ok)
	}
	hs, ok := snap.Get("b")
	if !ok || hs.Count != 1 || hs.Sum != 17 || hs.Kind != "histogram" {
		t.Fatalf("b sample wrong: %+v ok=%v", hs, ok)
	}
	if _, ok := snap.Get("missing"); ok {
		t.Fatal("Get found a missing sample")
	}
}

func TestHistogramLabelSuffix(t *testing.T) {
	r := NewRegistry()
	r.Histogram(L("pass_wall_ns", "pass", "gvn"), Scheduling, "").Observe(5)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[`pass_wall_ns_count{pass="gvn"}`] != 1 {
		t.Fatalf("labelled histogram suffix wrong:\n%v", got)
	}
	if got[`pass_wall_ns_bucket{le="8",pass="gvn"}`] != 1 {
		t.Fatalf("labelled histogram bucket wrong:\n%v", got)
	}
}

func TestDeterministicTextOmitsScheduling(t *testing.T) {
	r := NewRegistry()
	r.Counter("det_total", Deterministic, "").Add(1)
	r.Counter("sched_total", Scheduling, "").Add(1)
	det := r.Snapshot().DeterministicText()
	if !strings.Contains(det, "det_total") || strings.Contains(det, "sched_total") {
		t.Fatalf("deterministic section wrong:\n%s", det)
	}
}

func TestSpanRecordsWallTime(t *testing.T) {
	r := NewRegistry()
	sc := NewScope(r, "campaign")
	sp := sc.Start("check")
	time.Sleep(time.Millisecond)
	sp.End()
	sc.Start("check").End()
	name := `span_wall_ns{span="campaign/check"}`
	s, ok := r.Snapshot().Get(name)
	if !ok || s.Count != 2 || s.Sum == 0 || s.Class != "scheduling" {
		t.Fatalf("span sample wrong: %+v ok=%v", s, ok)
	}
}

func TestProgressLine(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressLine(&buf, time.Nanosecond)
	p.Flush("working %d", 1)
	time.Sleep(time.Millisecond)
	p.Update("go")
	p.Finish()
	p.Update("after finish") // discarded
	out := buf.String()
	if !strings.Contains(out, "\rworking 1") || !strings.Contains(out, "\rgo") {
		t.Fatalf("progress output wrong: %q", out)
	}
	if strings.Contains(out, "after finish") {
		t.Fatalf("update after Finish leaked: %q", out)
	}
	var nilP *ProgressLine
	nilP.Update("x")
	nilP.Flush("x")
	nilP.Finish()
}

// TestTelemetryRaceStress hammers one registry from many goroutines —
// run under -race in make ci it is the proof that the hot paths are
// actually lock-free-safe, not accidentally single-threaded.
func TestTelemetryRaceStress(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	var wg, snapWG sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshot reader, on its own WaitGroup: it only exits
	// once stop closes, which happens after the writers drain — putting
	// it in wg would deadlock wg.Wait(). Throttled: an unthrottled
	// snapshot loop allocates so hard under -race on one CPU that the
	// writers starve and the test times out rather than finishing.
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_ = r.Snapshot().DeterministicText()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("stress_total", Deterministic, "")
			h := r.Histogram("stress_hist", Scheduling, "")
			g := r.Gauge("stress_gauge", Scheduling, "")
			sc := NewScope(r, "stress")
			for i := 0; i < 2000; i++ {
				c.Inc()
				h.Observe(uint64(i))
				g.Add(1)
				if i%100 == 0 {
					// New series under contention exercises resolve.
					r.Counter(L("stress_labelled_total", "w", fmt.Sprint(w)), Scheduling, "").Inc()
					sc.Start("tick").End()
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if got := r.Counter("stress_total", Deterministic, "").Value(); got != workers*2000 {
		t.Fatalf("stress counter = %d, want %d", got, workers*2000)
	}
}
