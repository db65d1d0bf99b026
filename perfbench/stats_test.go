package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	// 200 samples: the p95 is the 190th, with exactly 10 beyond it.
	v, ok := tailPercentile(ramp(200), 0.95)
	if !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	// 199 samples: the p95 is the 190th, with 9 beyond it.
	if v, ok := tailPercentile(ramp(199), 0.95); ok {
		t.Errorf("p95 of 1..199 = %v reported with fewer than 10 samples beyond it", v)
	}
	// A few multi-second calls never have a tail: their p95 is their max.
	if _, ok := tailPercentile([]float64{1.7, 1.8, 1.6, 1.9, 1.75, 1.7}, 0.95); ok {
		t.Error("p95 of six samples reported")
	}
	if _, ok := tailPercentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestFailedOperationsSitAtInfinity(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 1
	}
	// Eleven failures push the p95 to +Inf: a failed job misses any
	// latency limit.
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if v, ok := tailPercentile(xs, 0.95); !ok || !math.IsInf(v, 1) {
		t.Errorf("p95 with 11 of 200 failed = %v, %v; want +Inf, true", v, ok)
	}
	// A minority of failures leaves the median finite; a majority does not.
	if m := median([]float64{1, 2, math.Inf(1)}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{1, math.Inf(1), math.Inf(1)}); !math.IsInf(m, 1) {
		t.Errorf("median = %v, want +Inf", m)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 2, 7}, 1.625, 8.0},
		{[]float64{5, 1}, 0, 6},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
