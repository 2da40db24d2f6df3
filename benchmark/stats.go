package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between closest ranks, the R-7 / numpy "linear" rule.
// xs need not be sorted; it is not modified. An empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the 0.5-quantile of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr returns the distance between the first and third quartiles of xs
// exactly as Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method, which extrapolates for tiny samples) computes
// them, because the benchmark's acceptance rule is written in that
// spread. Fewer than two samples have no spread and yield 0.
func iqr(xs []float64) float64 {
	ld := len(xs)
	if ld < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(3) - q(1)
}

// tailPercentile returns the highest whole percentile of n samples that
// still has at least ten samples beyond it, and false when n is too
// small for any (n <= 10). A tail figure past that point would rest on
// a handful of samples and move with every run.
func tailPercentile(n int) (int, bool) {
	if n <= 10 {
		return 0, false
	}
	// Samples strictly above the p-th percentile: n - ceil(p/100*n).
	for p := 99; p >= 1; p-- {
		if n-int(math.Ceil(float64(p)*float64(n)/100)) >= 10 {
			return p, true
		}
	}
	return 0, false
}
