package metrics

import (
	"math"
	"testing"
)

// unitBounds returns bounds 1,2,...,n so that observing each integer
// 1..n exactly once makes every quantile exactly computable: the value
// k sits alone in bucket (k-1, k], and the interpolated q-quantile is
// exactly q*n.
func unitBounds(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	return b
}

func TestHistogramExactQuantiles(t *testing.T) {
	h := NewHistogram(unitBounds(100))
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("Sum = %g, want 5050", h.Sum())
	}
	if h.Mean() != 50.5 {
		t.Fatalf("Mean = %g, want 50.5", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("Min/Max = %g/%g, want 1/100", h.Min(), h.Max())
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.25, 25}, {0.5, 50}, {0.75, 75},
		{0.90, 90}, {0.95, 95}, {0.99, 99}, {1, 100},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	// 10 observations all in one bucket (10, 20]: quantiles spread
	// linearly across the bucket.
	h := NewHistogram([]float64{10, 20, 30})
	for i := 0; i < 10; i++ {
		h.Observe(15)
	}
	// All mass in bucket (10,20]; q=0.5 -> 10 + 10*(5/10) = 15.
	if got := h.Quantile(0.5); math.Abs(got-15) > 1e-9 {
		t.Errorf("Quantile(0.5) = %g, want 15", got)
	}
	// Clamping: interpolation would give 12 for q=0.2, but min=15.
	if got := h.Quantile(0.2); got != 15 {
		t.Errorf("Quantile(0.2) = %g, want clamped to min 15", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.99); got > 200 || got < 100 {
		t.Errorf("Quantile(0.99) = %g, want within overflow [100, 200]", got)
	}
	if got := h.Max(); got != 200 {
		t.Errorf("Max = %g, want 200", got)
	}
	bs := h.Buckets()
	if len(bs) != 3 {
		t.Fatalf("Buckets len = %d, want 3", len(bs))
	}
	if !math.IsInf(bs[2].UpperBound, 1) || bs[2].Count != 2 {
		t.Errorf("overflow bucket = %+v, want +Inf bound with count 2", bs[2])
	}
}

func TestHistogramMergeAssociative(t *testing.T) {
	bounds := ExpBuckets(0.1, 2, 12)
	fill := func(seed, n int) *Histogram {
		h := NewHistogram(bounds)
		x := uint64(seed)
		for i := 0; i < n; i++ {
			// Tiny deterministic LCG; values spread across buckets
			// and into overflow.
			x = x*6364136223846793005 + 1442695040888963407
			h.Observe(float64(x%5000) / 10)
		}
		return h
	}
	a, b, c := fill(1, 100), fill(2, 57), fill(3, 211)

	// (a ⊕ b) ⊕ c
	left := NewHistogram(bounds)
	for _, h := range []*Histogram{a, b, c} {
		if err := left.Merge(h); err != nil {
			t.Fatal(err)
		}
	}
	// a ⊕ (b ⊕ c)
	bc := NewHistogram(bounds)
	if err := bc.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := bc.Merge(c); err != nil {
		t.Fatal(err)
	}
	right := NewHistogram(bounds)
	if err := right.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := right.Merge(bc); err != nil {
		t.Fatal(err)
	}

	if left.Count() != right.Count() || left.Count() != 368 {
		t.Fatalf("Count mismatch: %d vs %d (want 368)", left.Count(), right.Count())
	}
	if left.Sum() != right.Sum() || left.Min() != right.Min() || left.Max() != right.Max() {
		t.Fatalf("moment mismatch: sum %g/%g min %g/%g max %g/%g",
			left.Sum(), right.Sum(), left.Min(), right.Min(), left.Max(), right.Max())
	}
	lb, rb := left.Buckets(), right.Buckets()
	for i := range lb {
		if lb[i] != rb[i] {
			t.Errorf("bucket %d: %+v vs %+v", i, lb[i], rb[i])
		}
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if left.Quantile(q) != right.Quantile(q) {
			t.Errorf("Quantile(%g): %g vs %g", q, left.Quantile(q), right.Quantile(q))
		}
	}
}

func TestHistogramMergeMismatch(t *testing.T) {
	a := NewHistogram([]float64{1, 2, 3})
	b := NewHistogram([]float64{1, 2})
	b.Observe(1)
	if err := a.Merge(b); err == nil {
		t.Error("merge with different bucket counts: want error")
	}
	c := NewHistogram([]float64{1, 2, 4})
	c.Observe(1)
	if err := a.Merge(c); err == nil {
		t.Error("merge with different bounds: want error")
	}
	// Empty or nil other histograms merge as no-ops regardless of shape.
	if err := a.Merge(NewHistogram([]float64{9})); err != nil {
		t.Errorf("merge of empty histogram: %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("merge of nil histogram: %v", err)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(unitBounds(4))
	h.Observe(2)
	h.Observe(3)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("after Reset: n=%d sum=%g min=%g max=%g", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	for _, b := range h.Buckets() {
		if b.Count != 0 {
			t.Errorf("bucket %g count %d after Reset", b.UpperBound, b.Count)
		}
	}
}

// TestHistogramMergeEmptyIntoNonempty covers both directions of the
// degenerate merge: an empty receiver must adopt the donor's min/max
// wholesale (not fold them against its zero-valued fields), and a
// non-empty receiver absorbing an empty donor must not move at all.
func TestHistogramMergeEmptyIntoNonempty(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	donor := NewHistogram(bounds)
	for _, v := range []float64{3, 5, 7} {
		donor.Observe(v)
	}

	empty := NewHistogram(bounds)
	if err := empty.Merge(donor); err != nil {
		t.Fatal(err)
	}
	// min=3 > 0: naive "min(h.min, o.min)" with a zeroed receiver would
	// have reported 0 here.
	if empty.Min() != 3 || empty.Max() != 7 || empty.Count() != 3 || empty.Sum() != 15 {
		t.Fatalf("empty-receiver merge: min=%g max=%g n=%d sum=%g",
			empty.Min(), empty.Max(), empty.Count(), empty.Sum())
	}

	full := NewHistogram(bounds)
	full.Observe(2)
	before := full.String()
	if err := full.Merge(NewHistogram(bounds)); err != nil {
		t.Fatal(err)
	}
	if full.String() != before || full.Count() != 1 || full.Min() != 2 || full.Max() != 2 {
		t.Fatalf("merging an empty donor moved the receiver: %v -> %v", before, full.String())
	}
}

// TestHistogramBoundaryObservations: a value exactly on a bucket bound
// belongs to the bucket it closes (bounds are upper-inclusive), on both
// the Observe path and after a Merge.
func TestHistogramBoundaryObservations(t *testing.T) {
	bounds := []float64{1, 2, 4}
	h := NewHistogram(bounds)
	for _, v := range []float64{1, 2, 4} {
		h.Observe(v)
	}
	o := NewHistogram(bounds)
	o.Observe(2) // doubles the boundary count in bucket (1,2]
	if err := h.Merge(o); err != nil {
		t.Fatal(err)
	}
	got := h.Buckets()
	want := []BucketCount{
		{UpperBound: 1, Count: 1},
		{UpperBound: 2, Count: 2},
		{UpperBound: 4, Count: 1},
		{UpperBound: math.Inf(1), Count: 0},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v (all: %+v)", i, got[i], want[i], got)
		}
	}
	// Just past a bound spills into the next bucket.
	h.Observe(math.Nextafter(2, 3))
	if got := h.Buckets()[2].Count; got != 2 {
		t.Fatalf("observation just above bound landed in bucket 2 count %d, want 2", got)
	}
}

// TestHistogramQuantileExtremes: p0 and p100 are the exact observed
// min and max, on empty, single-sample and merged histograms alike.
func TestHistogramQuantileExtremes(t *testing.T) {
	bounds := ExpBuckets(0.1, 2, 10)
	h := NewHistogram(bounds)
	if h.Quantile(0) != 0 || h.Quantile(1) != 0 {
		t.Fatal("empty histogram extremes must be 0")
	}
	h.Observe(3.7)
	if h.Quantile(0) != 3.7 || h.Quantile(1) != 3.7 {
		t.Fatalf("single sample: p0=%g p100=%g", h.Quantile(0), h.Quantile(1))
	}
	o := NewHistogram(bounds)
	o.Observe(0.04) // below the first bound
	o.Observe(9000) // deep in the overflow bucket
	if err := h.Merge(o); err != nil {
		t.Fatal(err)
	}
	if h.Quantile(0) != 0.04 || h.Quantile(1) != 9000 {
		t.Fatalf("merged: p0=%g p100=%g", h.Quantile(0), h.Quantile(1))
	}
	// Interior quantiles stay clamped inside the observed range.
	for _, q := range []float64{0.001, 0.5, 0.999} {
		if v := h.Quantile(q); v < 0.04 || v > 9000 {
			t.Fatalf("Quantile(%g) = %g escaped [min, max]", q, v)
		}
	}
}
