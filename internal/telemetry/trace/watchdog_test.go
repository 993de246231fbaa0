package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The watchdog reads no clock: every test drives it with readings at
// chosen instants, so none of them sleeps.

func TestWatchdogNilAndDisabled(t *testing.T) {
	var w *Watchdog
	if age := w.Check(time.Now(), 0, true, 1); age != 0 {
		t.Fatalf("nil watchdog reported age %v", age)
	}
	if w.Stalls() != 0 {
		t.Fatal("nil watchdog reported stalls")
	}
	if NewWatchdog(WatchdogConfig{Tracks: 4}) != nil {
		t.Fatal("zero deadline must return the nil watchdog")
	}
	if NewWatchdog(WatchdogConfig{Deadline: time.Second}) != nil {
		t.Fatal("zero tracks must return the nil watchdog")
	}
}

// TestWatchdogFiresOnStall: a live track whose counter stands still
// past the deadline opens exactly one episode — with the stack dump,
// the pinned instant on its track and the snapshot — however many
// readings follow, while a track that keeps moving never fires.
func TestWatchdogFiresOnStall(t *testing.T) {
	rec := NewRecorder(0)
	var stacks bytes.Buffer
	snap := filepath.Join(t.TempDir(), "stall.json")
	w := NewWatchdog(WatchdogConfig{
		Tracks:       2,
		Deadline:     30 * time.Millisecond,
		Rec:          rec,
		StacksTo:     &stacks,
		SnapshotPath: snap,
	})
	t0 := time.Unix(1000, 0)
	for i := 0; i <= 20; i++ {
		now := t0.Add(time.Duration(i) * 10 * time.Millisecond)
		w.Check(now, 0, true, 5)         // silent from the first reading
		w.Check(now, 1, true, uint64(i)) // moves on every reading
		want := uint64(0)
		if i >= 4 { // 40ms > 30ms
			want = 1
		}
		if got := w.Stalls(); got != want {
			t.Fatalf("reading %d: stalls = %d, want %d", i, got, want)
		}
	}
	if !strings.Contains(stacks.String(), "goroutine") {
		t.Fatal("stack dump missing from stall output")
	}
	if n := strings.Count(stacks.String(), "watchdog: track"); n != 1 {
		t.Fatalf("%d stall reports, want 1:\n%s", n, stacks.String())
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("emergency snapshot not written: %v", err)
	}
	evs, _, err := ParseChromeJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("snapshot is not valid chrome json: %v", err)
	}
	stalls := 0
	for _, ev := range evs {
		if ev.Name == "watchdog_stall" && ev.Phase == PhaseInstant {
			if ev.Track != 0 {
				t.Fatalf("stall instant on track %d, want 0", ev.Track)
			}
			stalls++
		}
	}
	if stalls != 1 {
		t.Fatalf("snapshot holds %d watchdog_stall instants, want 1", stalls)
	}
}

// TestWatchdogRefiresAfterAdvance: a track that advances closes its
// episode; going silent again past the deadline opens a second one.
func TestWatchdogRefiresAfterAdvance(t *testing.T) {
	var stacks bytes.Buffer
	w := NewWatchdog(WatchdogConfig{Tracks: 1, Deadline: 30 * time.Millisecond, StacksTo: &stacks})
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	w.Check(at(0), 0, true, 1)
	w.Check(at(40), 0, true, 1)
	w.Check(at(80), 0, true, 1)
	if w.Stalls() != 1 {
		t.Fatalf("stalls = %d after the first silence, want 1", w.Stalls())
	}
	if age := w.Check(at(90), 0, true, 2); age != 0 {
		t.Fatalf("age %v on the reading that advanced, want 0", age)
	}
	w.Check(at(110), 0, true, 2)
	if w.Stalls() != 1 {
		t.Fatalf("stalls = %d within the deadline after advancing, want 1", w.Stalls())
	}
	w.Check(at(125), 0, true, 2)
	w.Check(at(200), 0, true, 2)
	if w.Stalls() != 2 {
		t.Fatalf("stalls = %d after the second silence, want 2", w.Stalls())
	}
	// A new run of the track (idle, then live again) restarts its
	// silence clock too.
	w.Check(at(210), 0, false, 2)
	w.Check(at(220), 0, true, 2)
	if age := w.Check(at(240), 0, true, 2); age != 20*time.Millisecond {
		t.Fatalf("age %v after going live again, want 20ms", age)
	}
	if w.Stalls() != 2 {
		t.Fatalf("stalls = %d after a fresh run, want 2", w.Stalls())
	}
}

// TestWatchdogDoneDisarms: an idle (finished) track never fires, no
// matter how long ago its counter last moved.
func TestWatchdogDoneDisarms(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Tracks: 2, Deadline: 20 * time.Millisecond, StacksTo: &bytes.Buffer{}})
	t0 := time.Unix(1000, 0)
	w.Check(t0, 0, true, 3)
	w.Check(t0.Add(10*time.Millisecond), 0, false, 3)
	for i := 1; i <= 10; i++ {
		now := t0.Add(time.Duration(i) * time.Second)
		if age := w.Check(now, 0, false, 3); age != 0 {
			t.Fatalf("idle track reported age %v", age)
		}
		w.Check(now, 1, false, 0) // never ran
	}
	if w.Stalls() != 0 {
		t.Fatalf("idle tracks fired: stalls = %d", w.Stalls())
	}
}

// TestWatchdogBeatAges: a live track's age is the time since its
// counter last moved.
func TestWatchdogBeatAges(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Tracks: 1, Deadline: 10 * time.Second, StacksTo: &bytes.Buffer{}})
	t0 := time.Unix(1000, 0)
	for _, c := range []struct {
		ms    int
		beats uint64
		age   time.Duration
	}{
		{0, 7, 0},
		{100, 7, 100 * time.Millisecond},
		{250, 7, 250 * time.Millisecond},
		{300, 9, 0},
		{450, 9, 150 * time.Millisecond},
	} {
		if got := w.Check(t0.Add(time.Duration(c.ms)*time.Millisecond), 0, true, c.beats); got != c.age {
			t.Fatalf("at %dms beats=%d: age %v, want %v", c.ms, c.beats, got, c.age)
		}
	}
	if w.Stalls() != 0 {
		t.Fatalf("stalls = %d within the deadline", w.Stalls())
	}
}
