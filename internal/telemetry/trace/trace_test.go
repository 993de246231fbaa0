package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Complete(0, "x", time.Now(), time.Millisecond)
	r.Instant(1, "i")
	r.Counter(2, "c", 3)
	r.SetTrackName(0, "zero")
	if r.Events() != nil || r.Dropped() != 0 || r.TrackNames() != nil {
		t.Fatal("nil recorder leaked state")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("nil recorder WriteChromeJSON: %v", err)
	}
}

func TestRecorderEventsSorted(t *testing.T) {
	r := NewRecorder(1024)
	start := time.Now()
	r.Complete(0, "a", start, 5*time.Millisecond)
	r.Instant(1, "b")
	r.Counter(2, "c", 42)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events not sorted by TS at %d", i)
		}
	}
}

func TestRingOverwriteCountsDropped(t *testing.T) {
	r := NewRecorder(recShards * 16) // minimum ring: 16 events per shard
	for i := 0; i < 100; i++ {
		r.Instant(0, "e") // all on one shard's ring of 16
	}
	if got := len(r.Events()); got != 16 {
		t.Fatalf("ring kept %d events, want 16", got)
	}
	if r.Dropped() != 84 {
		t.Fatalf("dropped = %d, want 84", r.Dropped())
	}
}

func TestPinnedSurvivesRingWrap(t *testing.T) {
	r := NewRecorder(recShards * 16)
	r.InstantPinned(0, "finding", "pass", "sccp")
	for i := 0; i < 1000; i++ {
		r.Instant(0, "noise")
	}
	found := 0
	for _, ev := range r.Events() {
		if ev.Name == "finding" {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("pinned event count = %d after wrap, want 1", found)
	}
	// The pinned region is a hard cap, not a ring.
	r2 := NewRecorder(0)
	for i := 0; i < PinnedCapacity+5; i++ {
		r2.InstantPinned(0, "p")
	}
	if got := len(r2.Events()); got != PinnedCapacity {
		t.Fatalf("pinned region held %d, want %d", got, PinnedCapacity)
	}
	if r2.Dropped() != 5 {
		t.Fatalf("pinned drops = %d, want 5", r2.Dropped())
	}
}

func TestConcurrentEmit(t *testing.T) {
	r := NewRecorder(0)
	var wg sync.WaitGroup
	for track := 0; track < 8; track++ {
		wg.Add(1)
		go func(tr int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Instant(tr, "tick")
			}
		}(track)
	}
	wg.Wait()
	if got := len(r.Events()); got != 4000 {
		t.Fatalf("got %d events, want 4000", got)
	}
}

func TestChromeJSONRoundTrip(t *testing.T) {
	r := NewRecorder(0)
	r.SetTrackName(0, "shard 0")
	r.SetTrackName(7, "run")
	start := time.Now()
	r.Complete(0, "campaign/s0", start, 3*time.Millisecond, "funcs", "12")
	r.Instant(0, "finding", "pass", "instcombine", "shard", "0")
	r.Counter(7, "findings", 2)

	var buf bytes.Buffer
	if err := r.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Must be a valid Chrome trace-event JSON object.
	var top map[string]any
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if _, ok := top["traceEvents"].([]any); !ok {
		t.Fatal("export lacks traceEvents array")
	}

	evs, tracks, err := ParseChromeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tracks[0] != "shard 0" || tracks[7] != "run" {
		t.Fatalf("track names did not round-trip: %v", tracks)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	byName := map[string]Event{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	sp := byName["campaign/s0"]
	if sp.Phase != PhaseComplete || sp.Dur < 2900000 || sp.Dur > 3100000 {
		t.Fatalf("span did not round-trip: %+v", sp)
	}
	if sp.Arg("funcs") != "12" {
		t.Fatalf("span args did not round-trip: %+v", sp)
	}
	fd := byName["finding"]
	if fd.Phase != PhaseInstant || fd.Arg("pass") != "instcombine" {
		t.Fatalf("instant did not round-trip: %+v", fd)
	}
	if c := byName["findings"]; c.Phase != PhaseCounter || c.Value != 2 {
		t.Fatalf("counter did not round-trip: %+v", c)
	}
}

func mkSpan(track int32, name string, ts, dur int64) Event {
	return Event{Name: name, Phase: PhaseComplete, Track: track, TS: ts, Dur: dur}
}

func TestSummarizeMergesNestedIntervals(t *testing.T) {
	evs := []Event{
		mkSpan(0, "campaign/s0", 0, 100),
		mkSpan(0, "check/compile", 10, 20), // nested: must not double-count
		mkSpan(0, "check/compile", 50, 10),
		mkSpan(1, "campaign/s1", 0, 40),
		mkSpan(1, "campaign/s1", 60, 40), // gap: busy = 80, not 100
		{Name: "finding", Phase: PhaseInstant, Track: 0, TS: 5},
		{Name: "findings", Phase: PhaseCounter, Track: 0, TS: 90, Value: 1},
		{Name: "findings", Phase: PhaseCounter, Track: 0, TS: 99, Value: 3},
	}
	s := Summarize(evs, map[int32]string{0: "shard 0"})
	if s.WallNS != 100 {
		t.Fatalf("WallNS = %d, want 100", s.WallNS)
	}
	if s.Instants["finding"] != 1 || s.Counters["findings"] != 3 {
		t.Fatalf("instants/counters wrong: %v %v", s.Instants, s.Counters)
	}
	if len(s.Tracks) != 2 {
		t.Fatalf("got %d tracks, want 2", len(s.Tracks))
	}
	if s.Tracks[0].BusyNS != 100 {
		t.Fatalf("track 0 busy = %d, want 100 (nested spans merged)", s.Tracks[0].BusyNS)
	}
	if s.Tracks[1].BusyNS != 80 {
		t.Fatalf("track 1 busy = %d, want 80 (gap excluded)", s.Tracks[1].BusyNS)
	}
	if s.Tracks[0].Name != "shard 0" {
		t.Fatalf("track name missing: %+v", s.Tracks[0])
	}
	if s.Spans[0].Name != "campaign/s0" || s.Spans[0].TotalNS != 100 {
		t.Fatalf("span sort wrong: %+v", s.Spans)
	}
}

func TestOutliers(t *testing.T) {
	var evs []Event
	for i := int32(0); i < 8; i++ {
		evs = append(evs, mkSpan(i, "campaign/s", 0, 100))
	}
	evs = append(evs, mkSpan(3, "campaign/s", 200, 400)) // shard 3: 500 busy vs median 100
	s := Summarize(evs, nil)
	out := s.Outliers(1.5)
	if len(out) != 1 || out[0].Track != 3 {
		t.Fatalf("outliers = %+v, want track 3 only", out)
	}
}

func TestDiff(t *testing.T) {
	a := Summarize([]Event{mkSpan(0, "x", 0, 100), mkSpan(0, "y", 0, 10)}, nil)
	b := Summarize([]Event{mkSpan(0, "x", 0, 300), mkSpan(0, "z", 0, 5)}, nil)
	d := Diff(a, b)
	if len(d) != 3 {
		t.Fatalf("got %d deltas, want 3", len(d))
	}
	if d[0].Name != "x" || d[0].TotalA != 100 || d[0].TotalB != 300 {
		t.Fatalf("largest delta wrong: %+v", d[0])
	}
}
