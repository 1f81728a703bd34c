package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(len(s)-1, int(q*float64(len(s))))]
}

// median is the middle of xs (the mean of the two middles for an even
// count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// acrossRepeats folds repeats of one fixed sequence of operations into
// one: element i is the median of operation i's value over the repeats.
// A run streams the same ticks several times (once per set-up, or per
// live round); a burst of interference hits different ticks each time,
// and the per-tick median drops it.
func acrossRepeats(repeats [][]float64) []float64 {
	out := make([]float64, len(repeats[0]))
	col := make([]float64, len(repeats))
	for i := range out {
		for k, r := range repeats {
			col[k] = r[i]
		}
		out[i] = median(col)
	}
	return out
}
