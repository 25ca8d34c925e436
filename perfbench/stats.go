package main

import (
	"math"
	"sort"
)

// minTail is how many samples a reported tail percentile must leave
// beyond it. A percentile with fewer samples behind it measures a handful
// of outliers, so the tail is lowered until ten remain.
const minTail = 10

// failedLatency stands in for the latency of a failed operation in the
// printed metrics: a failure misses every latency limit, so it sorts
// above every real latency.
const failedLatency = 1e9

// quantile returns the nearest-rank value at quantile q of xs, lowered to
// the highest quantile that leaves minTail samples beyond it and never
// below the median. It returns 0 for no samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if hi := 1 - float64(minTail)/float64(n); q > hi {
		q = hi
	}
	if q < 0.5 {
		q = 0.5
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	v := s[i]
	if math.IsInf(v, 1) {
		return failedLatency
	}
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to measurements.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// timing records a per-layer timing as name.p50, name.p99 (the highest
// percentile quantile allows) and name.n, its sample count.
func (m metrics) timing(name string, xs []float64, unit string) {
	m.set(name+".p50", quantile(xs, 0.5), unit)
	m.set(name+".p99", quantile(xs, 0.99), unit)
	m.set(name+".n", float64(len(xs)), "count")
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
