package metrics

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bucket latency histogram: counts of observations
// falling into [0, bounds[0]], (bounds[0], bounds[1]], ..., plus one
// overflow bucket past the last bound. Unlike Sample it retains no raw
// values, so millions of per-request latencies cost a fixed few hundred
// bytes, and two histograms with the same bounds merge by adding counts
// — which is what lets every VM of a cluster simulation keep a private
// histogram that the fleet report folds together afterwards.
//
// Quantiles are estimated by linear interpolation inside the bucket
// containing the target rank (the standard Prometheus-style estimator):
// exact whenever the distribution is uniform within each bucket, and
// never off by more than one bucket width otherwise.
type Histogram struct {
	bounds []float64 // ascending upper bounds; implicit +Inf overflow
	counts []uint64  // len(bounds)+1
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram creates a histogram over the given ascending upper
// bounds. It panics on empty or non-ascending bounds (a configuration
// error).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d (%g after %g)",
				i, bounds[i], bounds[i-1]))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	return h
}

// ExpBuckets returns n geometrically spaced bounds starting at start
// with the given growth factor — the usual shape for latency buckets,
// where relative (not absolute) resolution matters.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets returns the bounds used for request-latency
// histograms throughout the experiments: 48 geometric buckets from
// 0.05 ms to ~50 s (factor 1.35, ~9 buckets per decade), bracketing
// everything from an uncontended softirq to a hopeless timeout.
func DefaultLatencyBuckets() []float64 { return ExpBuckets(0.05, 1.35, 48) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h.n == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.n++
	h.sum += v
	h.counts[h.bucketOf(v)]++
}

// bucketOf returns the index of the bucket v falls into (binary search
// over the upper bounds).
func (h *Histogram) bucketOf(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean (0 with no observations).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest observation (0 with none).
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 with none).
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1), linearly interpolated
// within the bucket containing the target rank and clamped to the
// observed [min, max].
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next < target {
			cum = next
			continue
		}
		// Target rank lands in bucket i: interpolate between its bounds.
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		var hi float64
		if i < len(h.bounds) {
			hi = h.bounds[i]
		} else {
			// Overflow bucket: its only known upper edge is the max.
			hi = h.max
			if lo < h.min {
				lo = h.min
			}
		}
		v := lo + (hi-lo)*(target-cum)/float64(c)
		return math.Min(math.Max(v, h.min), h.max)
	}
	return h.max
}

// Buckets returns (upper bound, count) pairs including the overflow
// bucket (bound +Inf), for export and tests.
func (h *Histogram) Buckets() []BucketCount {
	out := make([]BucketCount, len(h.counts))
	for i, c := range h.counts {
		b := math.Inf(1)
		if i < len(h.bounds) {
			b = h.bounds[i]
		}
		out[i] = BucketCount{UpperBound: b, Count: c}
	}
	return out
}

// BucketCount is one bucket of an exported histogram.
type BucketCount struct {
	UpperBound float64
	Count      uint64
}

// Merge adds o's counts into h. The two histograms must share identical
// bounds; merging is commutative and associative by construction (count
// addition, min/max, sum). A nil or empty o is a no-op.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil || o.n == 0 {
		return nil
	}
	if len(o.bounds) != len(h.bounds) {
		return fmt.Errorf("metrics: merging histograms with %d vs %d buckets", len(o.bounds), len(h.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != o.bounds[i] {
			return fmt.Errorf("metrics: merging histograms with different bound %d (%g vs %g)",
				i, h.bounds[i], o.bounds[i])
		}
	}
	if h.n == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.n += o.n
	h.sum += o.sum
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	return nil
}

// Reset zeroes all counts.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n, h.sum, h.min, h.max = 0, 0, 0, 0
}

// String renders "n=…, p50=…, p95=…, p99=…".
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d p50=%.3f p95=%.3f p99=%.3f", h.n,
		h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99))
}
