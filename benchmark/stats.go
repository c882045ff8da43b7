package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of sorted values by linear interpolation
// (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (the exclusive method), so the figure matches the acceptance rule.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k)*float64(len(s)+1)/4 - 1
		lo := min(max(int(math.Floor(pos)), 0), len(s)-1)
		hi := min(lo+1, len(s)-1)
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(m)
}

// latencies collects per-operation durations in nanoseconds.
type latencies []int64

// pct returns the q-quantile in nanoseconds.
func (l latencies) pct(q float64) float64 {
	fs := make([]float64, len(l))
	for i, v := range l {
		fs[i] = float64(v)
	}
	slices.Sort(fs)
	return quantile(fs, q)
}

func (l latencies) sum() int64 {
	var s int64
	for _, v := range l {
		s += v
	}
	return s
}
