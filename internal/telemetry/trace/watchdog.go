package trace

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// WatchdogConfig configures a stall watchdog. Tracks that have beaten
// at least once are "armed"; an armed track whose last beat is older
// than Deadline is stalled. On the first detection of a stall episode
// the watchdog dumps all goroutine stacks to StacksTo, writes an
// emergency trace snapshot to SnapshotPath, and records a
// "watchdog_stall" instant in Rec — so a hung campaign leaves
// evidence instead of hanging silently. The episode ends (and can
// re-fire) when the track beats or finishes.
type WatchdogConfig struct {
	// Tracks is the number of heartbeat tracks (one per shard).
	Tracks int
	// Deadline is the maximum silence before a track counts as
	// stalled. Required (> 0).
	Deadline time.Duration
	// Interval is how often the checker wakes; defaults to
	// Deadline/4 (min 10ms).
	Interval time.Duration
	// Rec, when non-nil, receives a "watchdog_stall" instant per
	// episode on the stalled track.
	Rec *Recorder
	// StacksTo receives the goroutine dump (default os.Stderr).
	StacksTo io.Writer
	// SnapshotPath, when set, receives a Chrome-JSON snapshot of Rec
	// at the first stall (best effort, written once per process).
	SnapshotPath string
	// OnBeatAge, when non-nil, is called for every armed track on
	// every checker wake with the track's current heartbeat age —
	// the hook the campaign uses to publish per-shard gauges.
	OnBeatAge func(track int, age time.Duration)
	// OnStall, when non-nil, is called once per stall episode after
	// the dump.
	OnStall func(track int, age time.Duration)
}

// Watchdog is a running stall detector. Beat it from the watched
// loops; Stop it when the run ends. All methods are safe on nil.
type Watchdog struct {
	cfg      WatchdogConfig
	beats    []atomic.Int64 // unix nanos of last beat; 0 = disarmed
	stalled  []atomic.Bool  // true while a stall episode is open
	stalls   atomic.Uint64
	snapOnce sync.Once
	stop     chan struct{}
	done     sync.WaitGroup
}

// StartWatchdog launches the checker goroutine. Returns nil (a valid
// no-op watchdog) when Deadline <= 0 or Tracks <= 0.
func StartWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Deadline <= 0 || cfg.Tracks <= 0 {
		return nil
	}
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Deadline / 4
	}
	if cfg.Interval < 10*time.Millisecond {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.StacksTo == nil {
		cfg.StacksTo = os.Stderr
	}
	w := &Watchdog{
		cfg:     cfg,
		beats:   make([]atomic.Int64, cfg.Tracks),
		stalled: make([]atomic.Bool, cfg.Tracks),
		stop:    make(chan struct{}),
	}
	w.done.Add(1)
	go w.run()
	return w
}

// Beat marks the track alive now, arming it if it wasn't.
func (w *Watchdog) Beat(track int) {
	if w == nil || track < 0 || track >= len(w.beats) {
		return
	}
	w.beats[track].Store(time.Now().UnixNano())
	w.stalled[track].Store(false)
}

// Done disarms the track — a finished shard is not a stalled one.
func (w *Watchdog) Done(track int) {
	if w == nil || track < 0 || track >= len(w.beats) {
		return
	}
	w.beats[track].Store(0)
	w.stalled[track].Store(false)
}

// Stalls reports how many stall episodes completed: an episode counts
// once fire has written the stack dump and the snapshot and OnStall
// has returned, so a caller that sees the count rise can read all
// three.
func (w *Watchdog) Stalls() uint64 {
	if w == nil {
		return 0
	}
	return w.stalls.Load()
}

// Stop halts the checker. Safe to call once; the campaign defers it.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	close(w.stop)
	w.done.Wait()
}

func (w *Watchdog) run() {
	defer w.done.Done()
	tick := time.NewTicker(w.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			w.check(time.Now())
		}
	}
}

func (w *Watchdog) check(now time.Time) {
	for t := range w.beats {
		last := w.beats[t].Load()
		if last == 0 {
			continue // disarmed
		}
		age := now.Sub(time.Unix(0, last))
		if w.cfg.OnBeatAge != nil {
			w.cfg.OnBeatAge(t, age)
		}
		if age <= w.cfg.Deadline || w.stalled[t].Load() {
			continue
		}
		w.stalled[t].Store(true)
		w.fire(t, age)
		w.stalls.Add(1)
	}
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
	if w.cfg.SnapshotPath != "" {
		w.snapOnce.Do(func() {
			f, err := os.Create(w.cfg.SnapshotPath)
			if err != nil {
				fmt.Fprintf(w.cfg.StacksTo, "watchdog: snapshot: %v\n", err)
				return
			}
			defer f.Close()
			if err := w.cfg.Rec.WriteChromeJSON(f); err != nil {
				fmt.Fprintf(w.cfg.StacksTo, "watchdog: snapshot: %v\n", err)
			}
		})
	}
	if w.cfg.OnStall != nil {
		w.cfg.OnStall(track, age)
	}
}
