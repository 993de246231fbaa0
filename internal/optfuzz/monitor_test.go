package optfuzz

import (
	"bytes"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/passes"
	"tameir/internal/telemetry"
	"tameir/internal/telemetry/trace"
)

// holdSource blocks one shard after it has emitted `after` candidates,
// until release is closed; held is closed when the shard blocks. The
// other shards run as the wrapped source has them.
type holdSource struct {
	Source
	shard, after  int
	held, release chan struct{}
}

func newHoldSource(src Source, shard, after int) *holdSource {
	return &holdSource{Source: src, shard: shard, after: after,
		held: make(chan struct{}), release: make(chan struct{})}
}

func (h *holdSource) Enumerate(shard, max int, emit func(*ir.Func) bool) (int, bool) {
	if shard != h.shard {
		return h.Source.Enumerate(shard, max, emit)
	}
	n := 0
	return h.Source.Enumerate(shard, max, func(f *ir.Func) bool {
		if n == h.after {
			close(h.held)
			<-h.release
		}
		n++
		return emit(f)
	})
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func counterValue(reg *telemetry.Registry, name string) int64 {
	s, _ := reg.Snapshot().Get(name)
	return s.Value
}

// TestCampaignLiveMetrics: /metrics shows the campaign's verdict totals
// while the campaign runs, not only after Run returns, and the final
// values still equal the campaign result.
func TestCampaignLiveMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(telemetry.DebugMux(reg, nil))
	defer srv.Close()
	c := o2Campaign(core.FreezeOptions(), passes.DefaultFreezeConfig(), 2, false)
	hold := newHoldSource(c.Source, 0, 5)
	c.Source, c.Telemetry = hold, reg
	done := make(chan Stats)
	go func() { done <- c.Run() }()

	<-hold.held
	waitFor(t, "campaign_funcs_total > 0 on /metrics", func() bool {
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		kv, err := telemetry.ParseText(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("/metrics does not parse: %v", err)
		}
		return kv["campaign_funcs_total"] > 0
	})
	close(hold.release)
	st := <-done

	for name, want := range map[string]int{
		"campaign_funcs_total":        st.Funcs,
		"campaign_verified_total":     st.Verified,
		"campaign_refuted_total":      st.Refuted,
		"campaign_inconclusive_total": st.Inconclusive,
	} {
		if got := counterValue(reg, name); got != int64(want) {
			t.Errorf("%s = %d after the run, want %d", name, got, want)
		}
	}
}

// TestCampaignStallFiresOnce: a shard held past StallDeadline opens
// exactly one stall episode — a pinned instant on its own track, the
// snapshot written, watchdog_stalls_total = 1 — while the shards that
// keep producing never fire.
func TestCampaignStallFiresOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := trace.NewRecorder(0)
	snap := filepath.Join(t.TempDir(), "stall.json")
	c := o2Campaign(core.FreezeOptions(), passes.DefaultFreezeConfig(), 2, false)
	const held = 0
	hold := newHoldSource(c.Source, held, 2)
	c.Source, c.Telemetry, c.Trace = hold, reg, rec
	c.StallDeadline, c.StallSnapshot = 400*time.Millisecond, snap
	done := make(chan Stats)
	go func() { done <- c.Run() }()

	<-hold.held
	waitFor(t, "the held shard to stall", func() bool {
		return counterValue(reg, "watchdog_stalls_total") > 0
	})
	close(hold.release)
	st := <-done
	if st.Funcs == 0 {
		t.Fatal("campaign validated no functions")
	}

	if got := counterValue(reg, "watchdog_stalls_total"); got != 1 {
		t.Fatalf("watchdog_stalls_total = %d, want 1", got)
	}
	for _, ev := range rec.Events() {
		if ev.Name == "watchdog_stall" && ev.Track != held {
			t.Errorf("stall instant on track %d: only shard %d was held", ev.Track, held)
		}
	}
	if err := telemetry.CheckTrace("instants(watchdog_stall)==1", rec.Events()); err != nil {
		t.Error(err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("stall snapshot not written: %v", err)
	}
	evs, _, err := trace.ParseChromeJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("stall snapshot is not chrome json: %v", err)
	}
	if err := telemetry.CheckTrace("instants(watchdog_stall)==1", evs); err != nil {
		t.Errorf("stall snapshot: %v", err)
	}
}

// TestCampaignStallMonitorIsOneGoroutine: a campaign with Progress,
// StallDeadline and Telemetry armed runs exactly one goroutine beside
// the shards: the monitor.
func TestCampaignStallMonitorIsOneGoroutine(t *testing.T) {
	c := o2Campaign(core.FreezeOptions(), passes.DefaultFreezeConfig(), 1, false)
	hold := newHoldSource(c.Source, 0, 1)
	c.Source = hold
	c.Progress = func(CampaignProgress) {}
	c.StallDeadline = time.Hour
	c.Telemetry = telemetry.NewRegistry()
	done := make(chan Stats)
	go func() { done <- c.Run() }()
	<-hold.held

	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	close(hold.release)
	<-done

	// Workers=1 runs the shard on Run's goroutine, so the campaign's
	// goroutines are Run's and the monitor's (the running one is this
	// test's).
	var ours, monitors int
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "tameir/internal/") || strings.Contains(g, "[running]") {
			continue
		}
		ours++
		if strings.Contains(g, "startMonitor") {
			monitors++
		}
	}
	if ours != 2 || monitors != 1 {
		t.Fatalf("%d campaign goroutines with %d monitors, want 2 with 1:\n%s", ours, monitors, buf)
	}
}
