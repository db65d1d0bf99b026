package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie strictly beyond a
// tail percentile before it may be reported: with fewer, the "p95" of a
// short run is really its maximum, and its value swings with one outlier.
const minBeyond = 10

// sortedCopy returns the samples in ascending order without touching xs.
// A failed or refused operation enters a latency sample set as +Inf, so
// it sorts past every finite latency and can only push percentiles up.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the conventional median (mean of the two middle samples for
// an even count). It is NaN for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile returns the nearest-rank p-quantile (0 < p < 1) of xs —
// the smallest sample with at least a p share of the samples at or below
// it — and whether it is reportable: true only when at least minBeyond
// samples lie after it in sorted order.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), false
	}
	k := int(math.Ceil(p * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return s[k-1], n-k >= minBeyond
}

// quartiles returns the first and third quartiles with the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so the spreads printed here match the ones computed from the
// printed values. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// Position i·(n+1)/4 in 1-based order, clamped and interpolated
		// exactly as CPython does it.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
