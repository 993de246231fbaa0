// tame-metrics inspects metric snapshots written by the other tools'
// -metrics flags. It accepts either format (Prometheus-style text or
// the JSON snapshot, auto-detected) and is what CI uses to assert a
// campaign actually exported the counters it promises.
//
// Usage:
//
//	tame-fuzz -validate -metrics - | tame-metrics -check campaign_funcs_total,check_checks_total
//	tame-metrics -check 'engine_merge_exits_total>0,memo_hits_total/memo_lookups_total>=0.5' snapshot.json
//
// -check takes the assertion language tame-trace -assert shares
// (internal/telemetry, CheckSeries): comma-separated clauses, each a
// presence check ("check_set_size" — a name also matches its labelled
// and histogram children) or a comparison of a series, a ratio of two
// series, or a number ("engine_merge_exits_total>0",
// "verify_each_failures_total=0", "memo_hits_total/memo_lookups_total>=0.5").
// A series sums its labelled children, and an absent series fails its
// clause rather than reading as 0, so "=0" proves the counter was
// exported AND stayed clean. Exit status 1 if a clause fails or is
// malformed.
//
// Without -check, the parsed series names and values are listed — a
// quick way to see what a snapshot holds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"tameir/internal/telemetry"
)

func main() {
	check := flag.String("check", "", "comma-separated assertion clauses over the snapshot's series")
	flag.Parse()

	var r io.Reader = os.Stdin
	if flag.NArg() > 0 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		fatal(err)
	}
	values, err := telemetry.ParseSeries(data)
	if err != nil {
		fatal(err)
	}

	if *check == "" {
		names := make([]string, 0, len(values))
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s %d\n", n, values[n])
		}
		return
	}
	if err := telemetry.CheckSeries(*check, values); err != nil {
		fatal(err)
	}
	fmt.Printf("tame-metrics: %d series, every clause holds\n", len(values))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tame-metrics:", err)
	os.Exit(1)
}
