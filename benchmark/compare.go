package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareFiles compares two sides, each one --out file or a
// comma-separated list of them (runs of one commit, for example with
// different seeds). For every (workload, end-to-end metric) pair it
// prints each side's median and quartiles and a verdict:
//
//	REGRESSION  the new median is worse than the old by more than the
//	            metric's bound
//	worse       worse by more than either side's quartile spread, but
//	            within the bound
//	improved    better by more than either side's quartile spread
//	unresolved  a side's quartile spread exceeds the bound, so the
//	            difference cannot be told from noise — unless every new
//	            value reads worse (REGRESSION) or better (improved) than
//	            every old one
//	unchanged   otherwise
//
// With several runs on a side, its median and quartiles are those of
// the runs' medians. With one run, they are the run's median and its
// reps' quartiles, a stricter test of noise. Per-layer metrics, which
// have no bound, are listed without a verdict. Two more REGRESSION
// lines guard correctness: a share of failed operations above the old
// one, and a verdict digest that differs between runs of the same seed.
// It returns exit code 1 when anything regressed.
func compareFiles(oldArg, newArg string, sp *spec, w io.Writer) (int, error) {
	old, err := readResults(oldArg)
	if err != nil {
		return 2, err
	}
	cur, err := readResults(newArg)
	if err != nil {
		return 2, err
	}
	for _, side := range []struct {
		label string
		runs  []*resultFile
	}{{"old", old}, {"new", cur}} {
		for _, r := range side.runs {
			fmt.Fprintf(w, "%s: seed %d, commit %s, %s\n", side.label, r.Seed, r.Env.Commit, r.Env.Date)
		}
	}
	code := 0
	for _, wl := range workloads {
		o, n := runsOf(old, wl.name), runsOf(cur, wl.name)
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		of, nf := failedFrac(o), failedFrac(n)
		fmt.Fprintf(w, "\n== %s: failed %.4g -> %.4g of attempted\n", wl.name, of, nf)
		if nf > of {
			fmt.Fprintf(w, "   REGRESSION: more operations fail\n")
			code = 1
		}
		if seeds := digestMismatches(o, n); len(seeds) > 0 {
			fmt.Fprintf(w, "   REGRESSION: verdict digests differ for seeds %v\n", seeds)
			code = 1
		}
		fmt.Fprintf(w, "   %-16s %-8s %24s %24s %8s  %s\n", "metric", "unit", "old median [q1,q3]", "new median [q1,q3]", "delta", "verdict")
		for _, m := range sp.EndToEnd {
			oldS, ok1 := sideSummary(o, m.Name)
			newS, ok2 := sideSummary(n, m.Name)
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(oldS, newS, m)
			if v == "REGRESSION" {
				code = 1
			}
			fmt.Fprintf(w, "   %-16s %-8s %24s %24s %+7.1f%%  %s\n", m.Name, m.Unit,
				fmtSide(oldS), fmtSide(newS), 100*ratio(newS.Median-oldS.Median, oldS.Median), v)
		}
		for _, m := range sp.PerLayer {
			ov, ok1 := o[0].Layers[m.Name]
			nv, ok2 := n[0].Layers[m.Name]
			if ok1 && ok2 {
				fmt.Fprintf(w, "   %-36s %14.6g %14.6g\n", m.Name, ov, nv)
			}
		}
	}
	return code, nil
}

// runsOf returns each run's result for workload wl.
func runsOf(runs []*resultFile, wl string) []*workloadResult {
	var out []*workloadResult
	for _, r := range runs {
		if wr := r.Workloads[wl]; wr != nil {
			out = append(out, wr)
		}
	}
	return out
}

// sideSummary is one side's distribution of a metric; see compareFiles.
func sideSummary(runs []*workloadResult, name string) (summary, bool) {
	var vs []float64
	for _, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return summary{}, false
		}
		if len(runs) == 1 {
			return m.summary, true
		}
		vs = append(vs, m.Median)
	}
	return summarize(vs), true
}

// digestMismatches returns, in order, the seeds run on both sides whose
// verdict digests differ.
func digestMismatches(old, cur []*workloadResult) []int64 {
	want := map[int64]string{}
	for _, r := range old {
		want[r.Seed] = r.Digest
	}
	var out []int64
	for _, r := range cur {
		if d, ok := want[r.Seed]; ok && d != r.Digest {
			out = append(out, r.Seed)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// failedFrac is the share of the runs' attempted operations and checks
// that failed.
func failedFrac(runs []*workloadResult) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// verdict classifies the change of one metric; see compareFiles.
func verdict(old, cur summary, m metricSpec) string {
	sign := 1.0 // +1 when a larger value is worse
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * ratio(cur.Median-old.Median, old.Median)
	noise := max(old.spread(), cur.spread())
	switch {
	case noise > m.Bound && separated(old.Values, cur.Values, sign):
		return "REGRESSION"
	case noise > m.Bound && separated(old.Values, cur.Values, -sign):
		return "improved"
	case noise > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "REGRESSION"
	case worse > noise:
		return "worse"
	case -worse > noise:
		return "improved"
	}
	return "unchanged"
}

// separated reports whether every cur value is worse than every old
// value, where sign is +1 when larger is worse.
func separated(old, cur []float64, sign float64) bool {
	for _, o := range old {
		for _, c := range cur {
			if sign*(c-o) <= 0 {
				return false
			}
		}
	}
	return len(old) > 0 && len(cur) > 0
}

func fmtSide(s summary) string {
	return fmt.Sprintf("%.4g [%.4g,%.4g]", s.Median, s.Q1, s.Q3)
}

// readResults reads one --out file or a comma-separated list of them.
func readResults(arg string) ([]*resultFile, error) {
	var out []*resultFile
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	return out, nil
}
