package core

import (
	"math"
	"testing"
	"testing/quick"

	"vscale/internal/sim"
)

const t10ms = 10 * sim.Millisecond

func vm(id string, w float64, consumedPCPUs float64) VMStat {
	return VMStat{ID: id, Weight: w, Consumption: sim.Time(consumedPCPUs * float64(t10ms))}
}

func TestExtendabilityAllEqualAllBusy(t *testing.T) {
	// 4 VMs, equal weight, all consuming everything: each gets P/4.
	vms := []VMStat{vm("a", 1, 2), vm("b", 1, 2), vm("c", 1, 2), vm("d", 1, 2)}
	res := ComputeExtendability(nil, vms, 8, t10ms)
	for _, r := range res {
		if !r.Competitor {
			t.Fatalf("%s should be a competitor", r.ID)
		}
		if r.FairShare != 2*t10ms {
			t.Fatalf("%s fair = %v, want 20ms", r.ID, r.FairShare)
		}
		if r.Extend != 2*t10ms {
			t.Fatalf("%s extend = %v, want 20ms (no slack)", r.ID, r.Extend)
		}
		if r.OptimalVCPUs != 2 {
			t.Fatalf("%s optimal = %d, want 2", r.ID, r.OptimalVCPUs)
		}
	}
}

func TestExtendabilityReleaserDonatesSlack(t *testing.T) {
	// Two VMs on 4 pCPUs, equal weight. b is nearly idle; a is busy.
	vms := []VMStat{vm("busy", 1, 2.0), vm("idle", 1, 0.2)}
	res := ComputeExtendability(nil, vms, 4, t10ms)
	// fair share each: 2 pCPUs. idle released 1.8 pCPUs of slack.
	if !res[0].Competitor || res[1].Competitor {
		t.Fatalf("roles wrong: %+v", res)
	}
	wantExt := sim.Time(3.8 * float64(t10ms))
	if res[0].Extend != wantExt {
		t.Fatalf("busy extend = %v, want %v", res[0].Extend, wantExt)
	}
	if res[0].OptimalVCPUs != 4 {
		t.Fatalf("busy optimal = %d, want 4 (ceil 3.8)", res[0].OptimalVCPUs)
	}
	// The releaser keeps its fair share so it can ramp back up.
	if res[1].Extend != 2*t10ms || res[1].OptimalVCPUs != 2 {
		t.Fatalf("idle extendability = %+v", res[1])
	}
}

func TestExtendabilitySlackSplitByWeight(t *testing.T) {
	// Releaser frees 1.0 pCPU; competitors with weights 1 and 3 split it 1:3.
	vms := []VMStat{
		vm("c1", 1, 1.0),
		vm("c3", 3, 3.0),
		{ID: "rel", Weight: 4, Consumption: sim.Time(1.0 * float64(t10ms))},
	}
	res := ComputeExtendability(nil, vms, 8, t10ms)
	// fair: c1 = 1 pCPU, c3 = 3, rel = 4. rel consumed 1 → slack 3.
	if got := float64(res[0].Extend) / float64(t10ms); math.Abs(got-(1+3.0/4*1)) > 1e-9 {
		t.Fatalf("c1 extend = %f pCPUs", got)
	}
	if got := float64(res[1].Extend) / float64(t10ms); math.Abs(got-(3+9.0/4)) > 1e-9 {
		t.Fatalf("c3 extend = %f pCPUs", got)
	}
}

func TestExtendabilityConservation(t *testing.T) {
	// Σ competitor extend + Σ releaser consumption == P·t whenever at
	// least one competitor exists (work conservation; the derivation in
	// DESIGN.md §4). Property-checked over random configurations.
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		n := 2 + r.Intn(10)
		P := 1 + r.Intn(16)
		vms := make([]VMStat, n)
		for i := range vms {
			vms[i] = VMStat{
				ID:          string(rune('a' + i)),
				Weight:      1 + float64(r.Intn(8)),
				Consumption: sim.Time(r.Float64() * 2 * float64(P) / float64(n) * float64(t10ms)),
			}
		}
		res := ComputeExtendability(nil, vms, P, t10ms)
		var sum float64
		haveCompetitor := false
		for i, re := range res {
			if re.Competitor {
				haveCompetitor = true
				sum += float64(re.Extend)
			} else {
				sum += float64(vms[i].Consumption)
			}
		}
		if !haveCompetitor {
			return true
		}
		want := float64(P) * float64(t10ms)
		return math.Abs(sum-want) < 1e-3*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExtendabilityMaxMinFairness(t *testing.T) {
	// Every VM's extendability is at least its fair share.
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		n := 1 + r.Intn(12)
		P := 1 + r.Intn(16)
		vms := make([]VMStat, n)
		for i := range vms {
			vms[i] = VMStat{
				ID:          string(rune('a' + i)),
				Weight:      0.5 + r.Float64()*10,
				Consumption: sim.Time(r.Float64() * float64(P) * float64(t10ms)),
			}
		}
		res := ComputeExtendability(nil, vms, P, t10ms)
		for _, re := range res {
			if re.Extend < re.FairShare {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExtendabilityVCPUCountManipulationImmune(t *testing.T) {
	// A VM cannot gain extendability by changing its configured vCPU
	// count (MaxVCPUs only clamps downward).
	base := []VMStat{vm("a", 1, 3), vm("b", 1, 0.5)}
	r1 := ComputeExtendability(nil, base, 8, t10ms)
	withMax := []VMStat{base[0], base[1]}
	withMax[0].MaxVCPUs = 16
	r2 := ComputeExtendability(nil, withMax, 8, t10ms)
	if r1[0].Extend != r2[0].Extend {
		t.Fatalf("extendability changed with vCPU count: %v vs %v", r1[0].Extend, r2[0].Extend)
	}
}

func TestExtendabilityFairShareMonotoneInWeight(t *testing.T) {
	// Note: total extendability is NOT globally monotone in weight
	// (raising a competitor's weight shrinks releasers' pinned fair
	// shares and thus the slack pool), but the fair-share component is,
	// and extendability never drops below it.
	mk := func(w float64) []VMStat {
		return []VMStat{
			{ID: "x", Weight: w, Consumption: 8 * t10ms},
			vm("y", 2, 2),
			{ID: "z", Weight: 2, Consumption: sim.Time(0.1 * float64(t10ms))},
		}
	}
	prev := sim.Time(0)
	for w := 0.5; w <= 8; w += 0.5 {
		res := ComputeExtendability(nil, mk(w), 8, t10ms)
		if res[0].FairShare < prev {
			t.Fatalf("fair share not monotone in weight at w=%f", w)
		}
		if res[0].Extend < res[0].FairShare {
			t.Fatalf("extend below fair share at w=%f", w)
		}
		prev = res[0].FairShare
	}
}

func TestExtendabilityCompetitorsOrderedByWeight(t *testing.T) {
	// Within one configuration, a competitor with a higher weight gets
	// at least as much extendability as one with a lower weight.
	vms := []VMStat{
		{ID: "w1", Weight: 1, Consumption: 8 * t10ms},
		{ID: "w2", Weight: 2, Consumption: 8 * t10ms},
		{ID: "w4", Weight: 4, Consumption: 8 * t10ms},
		{ID: "rel", Weight: 1, Consumption: 0},
	}
	res := ComputeExtendability(nil, vms, 8, t10ms)
	if !(res[0].Extend < res[1].Extend && res[1].Extend < res[2].Extend) {
		t.Fatalf("competitor extendability not ordered by weight: %+v", res)
	}
}

func TestExtendabilityReservationAndCap(t *testing.T) {
	vms := []VMStat{
		{ID: "capped", Weight: 1, Consumption: 4 * t10ms, CapPCPUs: 1.5},
		{ID: "reserved", Weight: 1, Consumption: 0, ReservationPCPUs: 3},
	}
	res := ComputeExtendability(nil, vms, 8, t10ms)
	if got := float64(res[0].Extend) / float64(t10ms); got > 1.5+1e-9 {
		t.Fatalf("cap violated: %f pCPUs", got)
	}
	if res[0].OptimalVCPUs != 2 {
		t.Fatalf("capped optimal = %d, want 2", res[0].OptimalVCPUs)
	}
	if got := float64(res[1].Extend) / float64(t10ms); got < 3-1e-9 {
		t.Fatalf("reservation violated: %f pCPUs", got)
	}
}

func TestExtendabilityMaxVCPUsClamp(t *testing.T) {
	vms := []VMStat{
		{ID: "small", Weight: 1, Consumption: 8 * t10ms, MaxVCPUs: 4},
		{ID: "idle", Weight: 1, Consumption: 0},
	}
	res := ComputeExtendability(nil, vms, 16, t10ms)
	if res[0].OptimalVCPUs != 4 {
		t.Fatalf("optimal = %d, want clamp at 4", res[0].OptimalVCPUs)
	}
	if res[0].Extend > 4*t10ms {
		t.Fatalf("extend = %v, should clamp at 4 pCPU-periods", res[0].Extend)
	}
}

func TestExtendabilityUPVM(t *testing.T) {
	vms := []VMStat{
		{ID: "up", Weight: 4, Consumption: 1 * t10ms, UP: true},
		vm("other", 1, 0.1),
	}
	res := ComputeExtendability(nil, vms, 8, t10ms)
	if res[0].OptimalVCPUs != 1 {
		t.Fatalf("UP VM optimal = %d, want 1", res[0].OptimalVCPUs)
	}
}

func TestExtendabilityOptimalAtLeastOne(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		n := 1 + r.Intn(20)
		vms := make([]VMStat, n)
		for i := range vms {
			vms[i] = VMStat{
				ID:          string(rune('a' + i)),
				Weight:      0.1 + r.Float64()*5,
				Consumption: sim.Time(r.Float64() * float64(t10ms)),
				MaxVCPUs:    1 + r.Intn(8),
			}
		}
		for _, re := range ComputeExtendability(nil, vms, 1+r.Intn(8), t10ms) {
			if re.OptimalVCPUs < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExtendabilityCeilingGrantsPartialVCPU(t *testing.T) {
	// 2.5 pCPUs of extendability → 3 vCPUs (one for the partial slice).
	vms := []VMStat{
		{ID: "a", Weight: 5, Consumption: 8 * t10ms},
		{ID: "b", Weight: 11, Consumption: 8 * t10ms},
	}
	res := ComputeExtendability(nil, vms, 8, t10ms)
	if got := float64(res[0].Extend) / float64(t10ms); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("extend = %f pCPUs, want 2.5", got)
	}
	if res[0].OptimalVCPUs != 3 {
		t.Fatalf("optimal = %d, want 3", res[0].OptimalVCPUs)
	}
}

func TestExtendabilityExactIntegerNoExtraVCPU(t *testing.T) {
	// Exactly 2.0 pCPUs must yield 2 vCPUs, not 3, despite float noise.
	vms := []VMStat{vm("a", 1, 3), vm("b", 1, 3), vm("c", 1, 3), vm("d", 1, 3)}
	res := ComputeExtendability(nil, vms, 8, t10ms)
	for _, re := range res {
		if re.OptimalVCPUs != 2 {
			t.Fatalf("%s optimal = %d, want exactly 2", re.ID, re.OptimalVCPUs)
		}
	}
}

// TestOptimalWithMarginZeroIsAlgorithm1: with margin 0 the daemon's
// sizing, OptimalWithMargin, is Algorithm 1's OptimalVCPUs, so the
// pure-ceiling ablation is CeilMargin = 0 and needs no switch of its
// own. The pools mix 1–64-vCPU VMs, UP only for 1-vCPU ones. Half are
// random; the other half put every competitor a few nanoseconds above a
// whole number of pCPUs, and over a long period that is inside
// ceilDivEps's tolerance, so the tolerance decides the count there.
func TestOptimalWithMarginZeroIsAlgorithm1(t *testing.T) {
	tolerated := 0
	for seed := uint64(1); seed <= 400; seed++ {
		r := sim.NewRand(seed)
		period := []sim.Time{t10ms, 100 * sim.Second}[r.Intn(2)]
		n := 1 + r.Intn(8)
		vms := make([]VMStat, n)
		for i := range vms {
			vcpus := 1 + r.Intn(64)
			vms[i] = VMStat{
				ID:          string(rune('a' + i)),
				Weight:      0.1 + r.Float64()*5,
				Consumption: sim.Time(r.Float64() * float64(vcpus) * float64(period)),
				MaxVCPUs:    vcpus,
				UP:          vcpus == 1,
			}
		}
		P := 1 + r.Intn(64)
		if seed%2 == 0 && n > 1 {
			// Equal weights, m pCPUs of fair share each; vms[0] releases
			// k whole pCPUs per competitor plus delta ns, so every
			// competitor's extendability is m+k pCPUs plus a few ns.
			m := 1 + r.Intn(8)
			P = n * m
			k := r.Intn(m/(n-1) + 1)
			delta := sim.Time(r.Intn(40))
			for i := range vms {
				vms[i].Weight = 1
				vms[i].Consumption = sim.Time(m+1) * period
			}
			vms[0].Consumption = max(sim.Time(m-(n-1)*k)*period-delta, 0)
		}
		for i, e := range ComputeExtendability(nil, vms, P, period) {
			if got := OptimalWithMargin(e.Extend, period, 0, vms[i].MaxVCPUs); got != e.OptimalVCPUs {
				t.Fatalf("seed %d, VM %+v: extendability %v over %v sizes to %d with margin 0, Algorithm 1 says %d",
					seed, vms[i], e.Extend, period, got, e.OptimalVCPUs)
			}
			q := float64(e.Extend) / float64(period)
			if f := math.Floor(q); q > f && q-f <= 1e-9*(1+q) {
				tolerated++
			}
		}
	}
	if tolerated == 0 {
		t.Fatal("no extendability landed inside ceilDivEps's tolerance of a whole pCPU")
	}
	t.Logf("%d extendabilities inside the tolerance of a whole pCPU", tolerated)
}

func TestExtendabilityEmptyAndPanics(t *testing.T) {
	if got := ComputeExtendability(nil, nil, 4, t10ms); got != nil {
		t.Fatal("nil input should give nil output")
	}
	for _, tc := range []func(){
		func() { ComputeExtendability(nil, []VMStat{vm("a", 1, 1)}, 0, t10ms) },
		func() { ComputeExtendability(nil, []VMStat{vm("a", 1, 1)}, 4, 0) },
		func() { ComputeExtendability(nil, []VMStat{vm("a", 0, 1)}, 4, t10ms) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid input")
				}
			}()
			tc()
		}()
	}
}

func TestPoolSlack(t *testing.T) {
	vms := []VMStat{vm("busy", 1, 2.0), vm("idle", 1, 0.5)}
	res := ComputeExtendability(nil, vms, 4, t10ms)
	want := sim.Time(1.5 * float64(t10ms))
	if got := PoolSlack(vms, res); got != want {
		t.Fatalf("slack = %v, want %v", got, want)
	}
}
