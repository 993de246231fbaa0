package optfuzz

import (
	"strconv"
	"sync/atomic"
	"time"

	"tameir/internal/refine"
	"tameir/internal/telemetry"
	"tameir/internal/telemetry/trace"
)

// shardCell is one shard's running counts. Only the shard's own
// goroutine writes it, with an atomic load and store and no locked
// read-modify-write; the campaign monitor reads it while the run
// lasts, and Run sums the cells into Stats' verdict totals at the end,
// so every candidate is counted in one place. A cell fills two cache
// lines of its own, so one shard's stores never invalidate another's
// line whatever the slice's alignment.
type shardCell struct {
	verdicts [3]atomic.Uint64 // candidates per refine.Status; funcs is their sum
	done     atomic.Uint64    // shard runs finished, one per epoch
	running  atomic.Bool
	_        [88]byte
}

// bump increments a counter that only the calling goroutine writes.
func bump(n *atomic.Uint64) { n.Store(n.Load() + 1) }

func (c *shardCell) count(s refine.Status) { bump(&c.verdicts[s]) }

func (c *shardCell) finish() {
	bump(&c.done)
	c.running.Store(false)
}

// readCells sums the cells into a progress snapshot (Shards unset).
func readCells(cells []shardCell) CampaignProgress {
	var p CampaignProgress
	for s := range cells {
		c := &cells[s]
		p.Verified += c.verdicts[refine.Verified].Load()
		p.Refuted += c.verdicts[refine.Refuted].Load()
		p.Inconclusive += c.verdicts[refine.Inconclusive].Load()
		p.ShardsDone += int(c.done.Load())
	}
	p.Funcs = p.Verified + p.Refuted + p.Inconclusive
	return p
}

// monitor is the campaign's one observer. Each tick it reads the shard
// cells and from them calls Progress, publishes the growth of the
// verdict totals to Telemetry, sets the per-shard beat-age gauges and
// drives the stall watchdog. The shards themselves never read the
// clock or call back.
type monitor struct {
	cells    []shardCell
	runs     int // shard runs over all epochs
	progress func(CampaignProgress)
	reg      *telemetry.Registry
	wd       *trace.Watchdog

	// totals are campaign_{funcs,verified,refuted,inconclusive}_total
	// and watchdog_stalls_total; seen is what each has been given.
	totals [5]telemetry.Counter
	seen   [5]uint64

	quit, exited chan struct{}
}

// startMonitor starts the monitor goroutine when something reads it
// (Progress, StallDeadline or Telemetry) and returns nil otherwise. It
// ticks every 100ms, or every StallDeadline/4 when that is shorter,
// with a 10ms floor.
func (c Campaign) startMonitor(cells []shardCell, runs int) *monitor {
	if c.Progress == nil && c.StallDeadline <= 0 && c.Telemetry == nil {
		return nil
	}
	m := &monitor{
		cells:    cells,
		runs:     runs,
		progress: c.Progress,
		reg:      c.Telemetry,
		wd: trace.NewWatchdog(trace.WatchdogConfig{
			Tracks:       len(cells),
			Deadline:     c.StallDeadline,
			Rec:          c.Trace,
			SnapshotPath: c.StallSnapshot,
		}),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	det := telemetry.Deterministic
	m.totals[0] = m.reg.Counter("campaign_funcs_total", det, "candidate functions enumerated")
	m.totals[1] = m.reg.Counter("campaign_verified_total", det, "validations proved refining")
	m.totals[2] = m.reg.Counter("campaign_refuted_total", det, "validations refuted (findings)")
	m.totals[3] = m.reg.Counter("campaign_inconclusive_total", det, "validations hitting resource caps")
	if m.wd != nil {
		m.totals[4] = m.reg.Counter("watchdog_stalls_total", telemetry.Scheduling, "stall episodes the watchdog fired on")
	}

	every := 100 * time.Millisecond
	if d := c.StallDeadline / 4; d > 0 && d < every {
		every = d
	}
	every = max(every, 10*time.Millisecond)
	go func() {
		defer close(m.exited)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-m.quit:
				return
			case now := <-tick.C:
				m.pass(now)
			}
		}
	}()
	return m
}

// stop ends the goroutine and makes the final pass, so Progress sees
// the final totals and Telemetry holds them. Safe on nil.
func (m *monitor) stop() {
	if m == nil {
		return
	}
	close(m.quit)
	<-m.exited
	m.pass(time.Now())
}

// pass is one reading of the cells, taken at now.
func (m *monitor) pass(now time.Time) {
	p := readCells(m.cells)
	p.Shards = m.runs
	if m.wd != nil {
		for s := range m.cells {
			c := &m.cells[s]
			// A shard's beats move with every candidate it completes
			// and every run it finishes, so the start of its next
			// epoch's run restarts its silence clock too.
			live := c.running.Load()
			beats := c.done.Load()
			for i := range c.verdicts {
				beats += c.verdicts[i].Load()
			}
			age := m.wd.Check(now, s, live, beats)
			if live && m.reg != nil {
				m.reg.Gauge(
					telemetry.L("watchdog_beat_age_ms", "shard", strconv.Itoa(s)),
					telemetry.Scheduling,
					"ms since the shard's last completed candidate",
				).Set(age.Milliseconds())
			}
		}
	}
	for i, n := range [5]uint64{p.Funcs, p.Verified, p.Refuted, p.Inconclusive, m.wd.Stalls()} {
		m.totals[i].Add(n - m.seen[i])
		m.seen[i] = n
	}
	if m.progress != nil {
		m.progress(p)
	}
}
