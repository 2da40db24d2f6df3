package main

import (
	"math"
	"testing"
)

func TestMedianAndQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3}, 0.5, 3},
		{[]float64{1, 2}, 0.5, 1.5},
		{[]float64{5, 1, 3}, 0.5, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0, 1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1, 10},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

// The expected spreads are what Python's statistics.quantiles(xs, n=4)
// gives, q3 - q1: the acceptance rule is written in that function.
func TestIQRMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 0},
		{[]float64{1, 2}, 1.5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{3, 1, 4, 1, 5}, 3.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5},
		{[]float64{2.5, 0.1, 7, 7, 3.3, 9.9}, 5.825},
	} {
		if got := iqr(tc.xs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("iqr(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
		ok   bool
	}{
		{0, 0, false},
		{10, 0, false},
		{11, 9, true},   // 11 - ceil(0.09*11) = 10 beyond p9
		{14, 28, true},  // 14 - ceil(0.28*14) = 10
		{20, 50, true},  // 20 - 10 = 10
		{100, 90, true}, // 10 beyond p90
		{240, 95, true}, // 240 - 228 = 12; p96 leaves 9
		{1000, 99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}
