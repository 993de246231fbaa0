package main

import (
	"math"
	"sort"
)

// summary is a metric's distribution over the reps of one run.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// summarize returns the median and quartiles of xs. Quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), the
// same rule used to judge the benchmark's run-to-run spread.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{Values: xs, Median: median(s)}
	if len(s) < 2 {
		out.Q1, out.Q3 = out.Median, out.Median
		return out
	}
	q := quartiles(s)
	out.Q1, out.Q3 = q[0], q[2]
	return out
}

// spread is the distance between the quartiles as a share of the
// median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles ports statistics.quantiles(data, n=4, method='exclusive')
// for len(sorted) >= 2.
func quartiles(sorted []float64) [3]float64 {
	ld := len(sorted)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return out
}

// percentileUS returns the nearest-rank p-th percentile (0 < p < 1) of
// sorted durations in nanoseconds, in microseconds.
func percentileUS(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(sorted[k]) / 1e3
}
