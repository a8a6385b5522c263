package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // median leaves 9 beyond
		{20, 50},   // median leaves 10 beyond
		{99, 75},   // p90 leaves 9 beyond
		{100, 90},  // p90 leaves exactly 10
		{199, 90},  // p95 leaves 9
		{200, 95},  // p95 leaves 10
		{999, 98},  // p99 leaves 9
		{1000, 99}, // p99 leaves exactly 10
		{9999, 99}, // p99.9 leaves 9
		{10000, 99.9},
		{1_000_000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, c.want) < minBeyond {
			t.Errorf("n=%d: p%v has %d samples beyond, want >= %d", c.n, c.want, beyond(c.n, c.want), minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile(nil) = %v, want NaN", got)
	}
	// p99 of 1000 samples is the 990th: exactly ten samples lie beyond it.
	if b := beyond(len(xs), 99); b != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", b)
	}
}
