package trace

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// WatchdogConfig configures a stall watchdog. A live track whose beat
// counter has not moved for longer than Deadline is stalled. On the
// first detection of a stall episode the watchdog dumps all goroutine
// stacks to StacksTo, writes an emergency trace snapshot to
// SnapshotPath, and records a "watchdog_stall" instant in Rec — so a
// hung campaign leaves evidence instead of hanging silently. The
// episode ends (and can re-fire) when the track's counter moves or the
// track goes idle.
type WatchdogConfig struct {
	// Tracks is the number of watched tracks (one per shard).
	Tracks int
	// Deadline is the maximum silence before a track counts as
	// stalled. Required (> 0).
	Deadline time.Duration
	// Rec, when non-nil, receives a "watchdog_stall" instant per
	// episode on the stalled track.
	Rec *Recorder
	// StacksTo receives the goroutine dump (default os.Stderr).
	StacksTo io.Writer
	// SnapshotPath, when set, receives a Chrome-JSON snapshot of Rec
	// at the first stall (best effort, written once per watchdog).
	SnapshotPath string
}

// Watchdog turns periodic readings of per-track counters into stall
// episodes. It runs no goroutine and reads no clock: its one caller
// passes the time and every track's counters on each tick (the
// campaign monitor does), so it needs no synchronization. All methods
// are safe on nil.
type Watchdog struct {
	cfg     WatchdogConfig
	tracks  []watchTrack
	stalls  uint64
	snapped bool
}

// watchTrack is one track's state between readings.
type watchTrack struct {
	live    bool
	beats   uint64    // the counter at the last reading
	since   time.Time // when the counter last moved (or the track went live)
	stalled bool      // an episode is open
}

// NewWatchdog returns a watchdog over cfg.Tracks tracks, or nil (a
// valid no-op watchdog) when Deadline <= 0 or Tracks <= 0.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Deadline <= 0 || cfg.Tracks <= 0 {
		return nil
	}
	if cfg.StacksTo == nil {
		cfg.StacksTo = os.Stderr
	}
	return &Watchdog{cfg: cfg, tracks: make([]watchTrack, cfg.Tracks)}
}

// Check folds one reading of track taken at now: live reports whether
// the track has work in flight, beats is a counter that moves whenever
// the track shows life. It returns the track's beat age — how long
// beats has stood still while the track was live, 0 for an idle track
// — and opens a stall episode when a live track's age passes the
// deadline with no episode open.
func (w *Watchdog) Check(now time.Time, track int, live bool, beats uint64) time.Duration {
	if w == nil || track < 0 || track >= len(w.tracks) {
		return 0
	}
	t := &w.tracks[track]
	if !live {
		*t = watchTrack{} // a finished shard is not a stalled one
		return 0
	}
	if !t.live || beats != t.beats {
		*t = watchTrack{live: true, beats: beats, since: now}
		return 0
	}
	age := now.Sub(t.since)
	if age > w.cfg.Deadline && !t.stalled {
		t.stalled = true
		w.fire(track, age)
		w.stalls++
	}
	return age
}

// Stalls reports how many stall episodes have opened.
func (w *Watchdog) Stalls() uint64 {
	if w == nil {
		return 0
	}
	return w.stalls
}

func (w *Watchdog) fire(track int, age time.Duration) {
	fmt.Fprintf(w.cfg.StacksTo,
		"watchdog: track %d stalled (no heartbeat for %v, deadline %v); goroutine dump follows\n",
		track, age.Round(time.Millisecond), w.cfg.Deadline)
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	w.cfg.StacksTo.Write(buf[:n])
	w.cfg.Rec.InstantPinned(track, "watchdog_stall",
		"age_ms", fmt.Sprintf("%d", age.Milliseconds()))
	if w.cfg.SnapshotPath != "" && !w.snapped {
		w.snapped = true
		if err := w.writeSnapshot(); err != nil {
			fmt.Fprintf(w.cfg.StacksTo, "watchdog: snapshot: %v\n", err)
		}
	}
}

func (w *Watchdog) writeSnapshot() error {
	f, err := os.Create(w.cfg.SnapshotPath)
	if err != nil {
		return err
	}
	defer f.Close()
	return w.cfg.Rec.WriteChromeJSON(f)
}
