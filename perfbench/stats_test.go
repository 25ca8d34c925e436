package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: quantile must sort
	}
	return xs
}

func TestQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1000, 0.99, 990}, // p99 has exactly 10 beyond it
		{1000, 0.5, 500},
		{100, 0.99, 90}, // lowered to p90
		{40, 0.99, 30},  // lowered to p75
		{20, 0.99, 10},  // only the median qualifies
		{5, 0.99, 3},    // too few for a tail: the median
		{1, 0.99, 1},
	} {
		if got := quantile(seq(tc.n), tc.q); got != tc.want {
			t.Errorf("quantile(1..%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
}

func TestQuantileCountsFailuresAsMissingEveryLimit(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 20; i++ {
		xs[i] = math.Inf(1)
	}
	if got := quantile(xs, 0.99); got != failedLatency {
		t.Errorf("tail with failures = %v, want %v", got, failedLatency)
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
}

func TestTimingPrintsPercentilesAndCount(t *testing.T) {
	m := metrics{}
	m.timing("layer.x_ms", seq(200), "ms")
	if m["layer.x_ms.p50"].Value != 100 || m["layer.x_ms.p99"].Value != 190 || m["layer.x_ms.n"].Value != 200 {
		t.Errorf("timing = %+v", m)
	}
	if m["layer.x_ms.n"].Unit != "count" || m["layer.x_ms.p99"].Unit != "ms" {
		t.Errorf("units = %+v", m)
	}
}
