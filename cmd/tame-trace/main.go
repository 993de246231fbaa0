// tame-trace inspects flight-recorder traces (Chrome trace-event
// JSON, as written by tame-fuzz/tame-tv/tame-bench -trace or served
// at /debug/trace).
//
// Usage:
//
//	tame-trace [-top N] summarize trace.json
//	tame-trace diff old.json new.json
//	tame-trace -assert 'EXPR[,EXPR...]' trace.json
//
// summarize prints the top-N slowest span names, per-track (shard)
// utilization over the trace's wall window, slow-shard outliers whose
// busy time exceeds 1.5× the median, instant counts, and final
// counter values. diff compares two traces span-by-span, largest
// total-time change first — the before/after view for a perf PR.
//
// -assert evaluates the assertion language tame-metrics -check shares
// (internal/telemetry, CheckTrace) for CI gates and exits 1 if a
// clause fails or is malformed. Over a trace it adds four functions,
// and a bare series name reads the counter of that name:
//
//	spans(P)     complete events whose name starts with P
//	instants(P)  instant events whose name starts with P
//	dur(P)       total ns of complete events whose name starts with P
//	counter(N)   final value of counter N (an absent counter fails)
//
//	tame-trace -assert 'spans(campaign/s)>0,instants(finding)==counter(findings),instants(watchdog_stall)==0' trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"tameir/internal/telemetry"
	"tameir/internal/telemetry/trace"
)

func main() {
	top := flag.Int("top", 15, "span names to show in summarize (by total time)")
	assert := flag.String("assert", "", "comma-separated trace assertion clauses; exit 1 if one fails")
	outlier := flag.Float64("outlier", 1.5, "slow-shard threshold: busy time over this multiple of the median is flagged")
	flag.Parse()
	args := flag.Args()

	if *assert != "" {
		if len(args) != 1 {
			fatal(fmt.Errorf("-assert needs exactly one trace file, got %d args", len(args)))
		}
		evs, _, err := load(args[0])
		if err != nil {
			fatal(err)
		}
		if err := telemetry.CheckTrace(*assert, evs); err != nil {
			fatal(err)
		}
		fmt.Printf("tame-trace: ok: %s\n", *assert)
		return
	}

	cmd := "summarize"
	if len(args) > 0 {
		switch args[0] {
		case "summarize", "diff":
			cmd, args = args[0], args[1:]
		}
	}
	switch cmd {
	case "summarize":
		if len(args) != 1 {
			fatal(fmt.Errorf("summarize needs one trace file"))
		}
		evs, tracks, err := load(args[0])
		if err != nil {
			fatal(err)
		}
		summarize(trace.Summarize(evs, tracks), *top, *outlier)
	case "diff":
		if len(args) != 2 {
			fatal(fmt.Errorf("diff needs two trace files"))
		}
		a, ta, err := load(args[0])
		if err != nil {
			fatal(err)
		}
		b, tb, err := load(args[1])
		if err != nil {
			fatal(err)
		}
		diff(args[0], args[1], trace.Summarize(a, ta), trace.Summarize(b, tb), *top)
	}
}

func load(path string) ([]trace.Event, map[int32]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return trace.ParseChromeJSON(f)
}

func ns(v int64) string { return time.Duration(v).Round(time.Microsecond).String() }

func summarize(s trace.Summary, top int, outlier float64) {
	fmt.Printf("trace: %d events over %s\n", s.Events, ns(s.WallNS))

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\nspan\tcount\ttotal\tmax\tmean")
	for i, sp := range s.Spans {
		if i >= top {
			fmt.Fprintf(w, "… %d more span names\t\t\t\t\n", len(s.Spans)-top)
			break
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\n",
			sp.Name, sp.Count, ns(sp.TotalNS), ns(sp.MaxNS), ns(sp.TotalNS/int64(sp.Count)))
	}
	w.Flush()

	if len(s.Tracks) > 0 && s.WallNS > 0 {
		fmt.Fprintln(w, "\ntrack\tspans\tbusy\tutilization")
		for _, tr := range s.Tracks {
			name := tr.Name
			if name == "" {
				name = fmt.Sprintf("track %d", tr.Track)
			}
			fmt.Fprintf(w, "%s\t%d\t%s\t%.1f%%\n",
				name, tr.Spans, ns(tr.BusyNS), 100*float64(tr.BusyNS)/float64(s.WallNS))
		}
		w.Flush()
		for _, tr := range s.Outliers(outlier) {
			name := tr.Name
			if name == "" {
				name = fmt.Sprintf("track %d", tr.Track)
			}
			fmt.Printf("SLOW OUTLIER: %s busy %s (> %.1f× the median track)\n", name, ns(tr.BusyNS), outlier)
		}
	}

	if len(s.Instants) > 0 {
		fmt.Fprintln(w, "\ninstant\tcount")
		for _, name := range sortedKeys(s.Instants) {
			fmt.Fprintf(w, "%s\t%d\n", name, s.Instants[name])
		}
		w.Flush()
	}
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "\ncounter\tfinal")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "%s\t%d\n", name, s.Counters[name])
		}
		w.Flush()
	}
}

func diff(pathA, pathB string, a, b trace.Summary, top int) {
	fmt.Printf("diff: %s (%s wall) -> %s (%s wall)\n", pathA, ns(a.WallNS), pathB, ns(b.WallNS))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\nspan\tcount\ttotal\tdelta")
	deltas := trace.Diff(a, b)
	for i, d := range deltas {
		if i >= top {
			fmt.Fprintf(w, "… %d more span names\t\t\t\n", len(deltas)-top)
			break
		}
		delta := ns(d.TotalB - d.TotalA)
		if d.TotalB >= d.TotalA {
			delta = "+" + delta
		}
		fmt.Fprintf(w, "%s\t%d -> %d\t%s -> %s\t%s\n",
			d.Name, d.CountA, d.CountB, ns(d.TotalA), ns(d.TotalB), delta)
	}
	w.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tame-trace:", err)
	os.Exit(1)
}
