// Package metrics provides the measurement primitives used throughout
// the vScale reproduction: streaming summaries, exact-sample quantiles,
// and fixed-bucket latency histograms.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates scalar samples and exposes count/sum/mean/min/max
// and variance via Welford's algorithm. It does not retain samples.
type Summary struct {
	n        uint64
	sum      float64
	mean, m2 float64
	min, max float64
}

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	s.sum += v
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// Count returns the number of samples.
func (s *Summary) Count() uint64 { return s.n }

// Mean returns the sample mean (0 with no samples).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest sample (0 with no samples).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample (0 with no samples).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Sum returns the exact running sum of the observations. It is tracked
// directly rather than reconstructed as mean*count: the Welford mean
// carries per-update rounding, so the reconstruction drifts from the
// plain accumulation a scrape consumer would expect of a _sum series.
func (s *Summary) Sum() float64 { return s.sum }

// Variance returns the population variance.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Stddev returns the population standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Reset clears the summary.
func (s *Summary) Reset() { *s = Summary{} }

// String renders "n=…, mean=…, min=…, max=…".
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f", s.n, s.Mean(), s.Min(), s.Max())
}

// Sample retains every observation for exact quantiles.
// The experiments retain at most a few hundred thousand samples, so the
// memory cost is acceptable and exactness is preferred over sketches.
type Sample struct {
	vs     []float64
	sorted bool
}

// Observe appends one value.
func (s *Sample) Observe(v float64) {
	s.vs = append(s.vs, v)
	s.sorted = false
}

// Count returns the number of retained values.
func (s *Sample) Count() int { return len(s.vs) }

// Mean returns the arithmetic mean.
func (s *Sample) Mean() float64 {
	if len(s.vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vs {
		sum += v
	}
	return sum / float64(len(s.vs))
}

// Min returns the smallest retained value (0 if empty).
func (s *Sample) Min() float64 {
	s.sort()
	if len(s.vs) == 0 {
		return 0
	}
	return s.vs[0]
}

// Max returns the largest retained value (0 if empty).
func (s *Sample) Max() float64 {
	s.sort()
	if len(s.vs) == 0 {
		return 0
	}
	return s.vs[len(s.vs)-1]
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0<=q<=1) using linear interpolation.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.vs) == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min()
	}
	if q >= 1 {
		return s.Max()
	}
	s.sort()
	pos := q * float64(len(s.vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.vs[lo]
	}
	frac := pos - float64(lo)
	return s.vs[lo]*(1-frac) + s.vs[hi]*frac
}

// Merge appends every value retained by o (which may be nil). It exists
// so aggregators outside this package — trace.Merge combining per-run
// tracers — can pool exact samples without access to the raw slice.
func (s *Sample) Merge(o *Sample) {
	if o == nil || len(o.vs) == 0 {
		return
	}
	s.vs = append(s.vs, o.vs...)
	s.sorted = false
}
