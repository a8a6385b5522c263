package main

import (
	"math"
	"sort"
	"time"

	"resinfer/internal/stats"
)

// percentile returns the nearest-rank p-th percentile (p in (0,100]) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := rankOf(n, p)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailPercentiles are the tail percentiles a timing may be reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be supported by the sample.
const minBeyond = 10

// beyond returns how many of n samples lie strictly past the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	return n - rankOf(n, p)
}

// rankOf is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps p·n/100 that is integral in exact arithmetic (99.9 of
// 10000) from rounding up a rank through binary representation error.
func rankOf(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentile returns the highest percentile in tailPercentiles with
// at least minBeyond of n samples beyond it, or 0 when even the median is
// unsupported.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median of xs; NaN for no samples.
func median(xs []float64) float64 {
	m, err := stats.Quantile(xs, 0.5)
	if err != nil {
		return math.NaN()
	}
	return m
}
