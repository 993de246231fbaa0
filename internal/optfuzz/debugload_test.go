package optfuzz

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"tameir/internal/core"
	"tameir/internal/passes"
	"tameir/internal/telemetry"
	"tameir/internal/telemetry/trace"
)

// TestDebugServerUnderCampaignLoad exercises the observability plane
// under concurrency: while a traced campaign runs, scrapers hammer
// /metrics, /metrics.json, and /debug/trace. The trace endpoint
// snapshots the live flight recorder mid-emission, so this is the
// test `go test -race` uses to prove scraping never tears recorder or
// registry state. Every /debug/trace response must also parse as
// Chrome trace-event JSON — a half-written snapshot is a bug even
// without a data race.
func TestDebugServerUnderCampaignLoad(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := trace.NewRecorder(0)
	ds, err := telemetry.StartDebugServer("127.0.0.1:0", reg, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var scrapeErr error
	var traceScrapes int
	fail := func(err error) {
		mu.Lock()
		if scrapeErr == nil {
			scrapeErr = err
		}
		mu.Unlock()
	}
	for _, path := range []string{"/metrics", "/metrics.json", "/debug/trace"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + ds.Addr + path)
				if err != nil {
					fail(fmt.Errorf("GET %s: %w", path, err))
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					fail(fmt.Errorf("GET %s: read: %w", path, err))
					return
				}
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("GET %s: status %d", path, resp.StatusCode))
					return
				}
				if path == "/debug/trace" {
					if _, _, err := trace.ParseChromeJSON(strings.NewReader(string(body))); err != nil {
						fail(fmt.Errorf("mid-campaign /debug/trace snapshot does not parse: %w", err))
						return
					}
					mu.Lock()
					traceScrapes++
					mu.Unlock()
				}
			}
		}(path)
	}

	c := o2Campaign(core.FreezeOptions(), passes.DefaultFreezeConfig(), 4, false)
	c.Telemetry = reg
	c.Trace = rec
	st := c.Run()

	close(stop)
	wg.Wait()
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	if st.Funcs == 0 {
		t.Fatal("campaign validated no functions")
	}
	if traceScrapes == 0 {
		t.Fatal("/debug/trace was never scraped during the campaign")
	}
	// The final recorder state must hold the campaign's shard spans.
	if err := telemetry.CheckTrace("spans(campaign/s)>0", rec.Events()); err != nil {
		t.Errorf("post-campaign recorder: %v", err)
	}
}
