// tame-metrics inspects metric snapshots written by the other tools'
// -metrics flags. It accepts either format (Prometheus-style text or
// the JSON snapshot, auto-detected) and is what CI uses to assert a
// campaign actually exported the counters it promises.
//
// Usage:
//
//	tame-fuzz -validate -metrics - | tame-metrics -check campaign_funcs_total,check_checks_total
//	tame-metrics -check memo_lookups_total snapshot.json
//
// With -check, exit status 1 if any required series is missing; a
// required name also matches its labelled or histogram-suffixed
// children (check_set_size matches check_set_size_bucket{le="1"}).
// A name suffixed with ">0" (engine_merge_exits_total>0) additionally
// requires some matching sample to be positive — how CI asserts that
// state merging actually happened, not just that the counter was
// registered. A name suffixed with "=0" (verify_each_failures_total=0)
// requires the series to be present AND every matching sample to be
// zero — how CI asserts a failure counter was exported and stayed
// clean, distinguishing "no failures" from "counter never registered".
//
// Cross-metric ratio assertions divide two series:
//
//	tame-metrics -check 'memo_hits_total/memo_lookups_total>=0.5' snapshot.json
//
// The form is numerator/denominator followed by >= or <= and a float
// threshold. Each side sums the exact series plus its labelled
// children, so per-shard or per-experiment splits count toward the
// whole. The assertion fails when either series is missing or the
// denominator is zero — a vanished workload must not pass vacuously.
//
// Without -check, the parsed series names and values are listed — a
// quick way to see what a snapshot holds.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"tameir/internal/telemetry"
)

func main() {
	check := flag.String("check", "", "comma-separated series names that must be present")
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

	values := map[string]int64{}
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '{' {
		snap, err := telemetry.ParseJSON(bytes.NewReader(data))
		if err != nil {
			fatal(err)
		}
		for _, s := range snap.Samples {
			if s.Kind == "histogram" {
				values[s.Name+"_count"] = int64(s.Count)
				values[s.Name+"_sum"] = int64(s.Sum)
			} else {
				values[s.Name] = s.Value
			}
		}
	} else {
		values, err = telemetry.ParseText(bytes.NewReader(data))
		if err != nil {
			fatal(err)
		}
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

	var missing []string
	for _, want := range strings.Split(*check, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		if ok, handled := checkRatio(values, want); handled {
			if !ok {
				missing = append(missing, want)
			}
			continue
		}
		name, nonzero := strings.CutSuffix(want, ">0")
		name, zero := strings.CutSuffix(name, "=0")
		if !satisfied(values, name, nonzero, zero) {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		fatal(fmt.Errorf("missing required series: %s", strings.Join(missing, ", ")))
	}
	fmt.Printf("tame-metrics: %d series, all required keys present\n", len(values))
}

// satisfied reports whether name (or a labelled / histogram-suffixed
// child of it) exists in the parsed snapshot and meets the value
// assertion: with nonzero set, some matching sample must be positive;
// with zero set, every matching sample must be zero (presence still
// required, so a never-registered counter fails rather than passing
// vacuously).
func satisfied(values map[string]int64, name string, nonzero, zero bool) bool {
	found, positive := false, false
	for k, v := range values {
		if k != name && !strings.HasPrefix(k, name+"{") && !strings.HasPrefix(k, name+"_") {
			continue
		}
		found = true
		if v != 0 {
			positive = true
		}
	}
	if !found {
		return false
	}
	if nonzero {
		return positive
	}
	if zero {
		return !positive
	}
	return true
}

// checkRatio evaluates a cross-metric ratio assertion
// ("num/den>=0.5", "num/den<=2"). handled reports whether the
// expression is one; ok whether it holds. Both series must exist and
// the denominator must be positive — missing data fails the check
// rather than passing it vacuously.
func checkRatio(values map[string]int64, expr string) (ok, handled bool) {
	op := ">="
	i := strings.Index(expr, ">=")
	if i < 0 {
		i = strings.Index(expr, "<=")
		op = "<="
	}
	if i < 0 {
		return false, false
	}
	lhs, rhs := expr[:i], expr[i+2:]
	num, den, isRatio := strings.Cut(lhs, "/")
	if !isRatio {
		return false, false
	}
	threshold, err := strconv.ParseFloat(strings.TrimSpace(rhs), 64)
	if err != nil {
		return false, false
	}
	nv, nok := sumSeries(values, strings.TrimSpace(num))
	dv, dok := sumSeries(values, strings.TrimSpace(den))
	if !nok || !dok || dv == 0 {
		return false, true
	}
	ratio := float64(nv) / float64(dv)
	if op == ">=" {
		return ratio >= threshold, true
	}
	return ratio <= threshold, true
}

// sumSeries sums a series and its labelled children (exact name or
// name{...} — histogram suffix children are deliberately excluded so a
// ratio never mixes _count/_sum samples into a counter).
func sumSeries(values map[string]int64, name string) (int64, bool) {
	var sum int64
	found := false
	for k, v := range values {
		if k == name || strings.HasPrefix(k, name+"{") {
			found = true
			sum += v
		}
	}
	return sum, found
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tame-metrics:", err)
	os.Exit(1)
}
