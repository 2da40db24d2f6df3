package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"vscale/internal/sim"
)

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.Count() != 8 {
		t.Fatal("count")
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %f", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %f/%f", s.Min(), s.Max())
	}
	if math.Abs(s.Variance()-4) > 1e-9 {
		t.Fatalf("variance = %f", s.Variance())
	}
	if math.Abs(s.Stddev()-2) > 1e-9 {
		t.Fatalf("stddev = %f", s.Stddev())
	}
	if math.Abs(s.Sum()-40) > 1e-9 {
		t.Fatalf("sum = %f", s.Sum())
	}
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("reset")
	}
}

// TestSummarySumExact: Sum must be the plain left-to-right accumulation
// of the observations, bit for bit — not the mean*count reconstruction,
// whose per-update Welford rounding drifts on long mixed-sign streams.
func TestSummarySumExact(t *testing.T) {
	r := sim.NewRand(7)
	var s Summary
	var acc float64
	for i := 0; i < 10000; i++ {
		v := r.Float64()*1e6 - 3e5
		s.Observe(v)
		acc += v
	}
	if s.Sum() != acc {
		t.Fatalf("Sum() = %v, want exact accumulation %v", s.Sum(), acc)
	}
	// This stream is one where the old reconstruction demonstrably
	// drifts; the test would not distinguish the implementations
	// otherwise.
	if rec := s.Mean() * float64(s.Count()); rec == acc {
		t.Fatalf("mean*count = %v did not drift; pick a stream that exposes the difference", rec)
	}
}

func TestSummaryMatchesSample(t *testing.T) {
	f := func(vals []float64) bool {
		var su Summary
		var sa Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			su.Observe(v)
			sa.Observe(v)
		}
		if su.Count() == 0 {
			return true
		}
		return math.Abs(su.Mean()-sa.Mean()) < 1e-6*(1+math.Abs(sa.Mean())) &&
			su.Min() == sa.Min() && su.Max() == sa.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("q0 = %f", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Fatalf("q1 = %f", q)
	}
	if q := s.Quantile(0.5); math.Abs(q-50.5) > 1e-9 {
		t.Fatalf("median = %f", q)
	}
	if q := s.Quantile(0.99); math.Abs(q-99.01) > 1e-9 {
		t.Fatalf("p99 = %f", q)
	}
}

func TestSampleQuantileMonotone(t *testing.T) {
	r := sim.NewRand(3)
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Observe(r.Float64() * 100)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%f: %f < %f", q, v, prev)
		}
		prev = v
	}
}
