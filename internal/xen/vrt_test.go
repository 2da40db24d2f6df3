package xen

import (
	"math"
	"testing"

	"vscale/internal/sim"
)

func setupVRT(t *testing.T, pcpus int, vscale bool) (*sim.Engine, *Pool) {
	t.Helper()
	eng := sim.NewEngine(2)
	cfg := DefaultConfig(pcpus)
	cfg.Policy = PolicyVRT
	pool := NewPool(eng, cfg)
	if vscale {
		pool.EnableVScale()
	}
	return eng, pool
}

func TestVRTFairSplit(t *testing.T) {
	eng, pool := setupVRT(t, 1, false)
	a, _ := addHogDomain(eng, pool, "a", 256, 1)
	b, _ := addHogDomain(eng, pool, "b", 256, 1)
	pool.Start()
	if err := eng.RunUntil(6 * sim.Second); err != nil {
		t.Fatal(err)
	}
	ra, rb := a.TotalRunTime.Seconds(), b.TotalRunTime.Seconds()
	if math.Abs(ra-rb) > 0.2 {
		t.Fatalf("VRT unfair: a=%fs b=%fs", ra, rb)
	}
	if ra+rb < 5.9 {
		t.Fatalf("VRT not work conserving: %fs of 6s", ra+rb)
	}
}

func TestVRTWeightedSharing(t *testing.T) {
	eng, pool := setupVRT(t, 1, false)
	a, _ := addHogDomain(eng, pool, "a", 768, 1)
	b, _ := addHogDomain(eng, pool, "b", 256, 1)
	pool.Start()
	if err := eng.RunUntil(9 * sim.Second); err != nil {
		t.Fatal(err)
	}
	ratio := float64(a.TotalRunTime) / float64(b.TotalRunTime)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weight 3:1 not honoured under VRT: ratio %f", ratio)
	}
}

func TestVRTInteractiveLatency(t *testing.T) {
	// The VRT sleep bonus must give a waking vCPU prompt service
	// (bounded by the slice, not by the hog's accumulated runtime).
	eng, pool := setupVRT(t, 1, false)
	addHogDomain(eng, pool, "hog", 256, 1)
	gInt := newFakeGuest(eng, pool, 1)
	dInt := pool.AddDomain("interactive", 256, 1, gInt)
	gInt.dom = dInt
	gInt.onEvent = func(v int, port *Port) {
		if port.Kind == PortIPI {
			gInt.work[v] = sim.Millisecond
			gInt.Descheduled(v)
			gInt.Dispatched(v)
		}
	}
	dInt.KickVCPU(0)
	every(eng, "poke", 100*sim.Millisecond, func() { dInt.KickVCPU(0) })
	pool.Start()
	if err := eng.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	v := dInt.VCPU(0)
	if v.Wakeups < 40 {
		t.Fatalf("wakeups = %d", v.Wakeups)
	}
	avgWait := sim.Time(float64(v.WaitTime) / float64(v.Wakeups))
	// The waking vCPU's vruntime floor puts it at most one slice behind
	// the hog, so it runs within a couple of ticks.
	if avgWait > 25*sim.Millisecond {
		t.Fatalf("interactive avg wait = %v under VRT", avgWait)
	}
}

func TestVRTVScaleExtensionWorks(t *testing.T) {
	// The extendability calculation is scheduler-agnostic: it must give
	// the same answers under VRT as under credit.
	eng, pool := setupVRT(t, 4, true)
	busy, _ := addHogDomain(eng, pool, "busy", 256, 4)
	gIdle := newFakeGuest(eng, pool, 2)
	idle := pool.AddDomain("idle", 128, 2, gIdle)
	gIdle.dom = idle
	idle.KickVCPU(0)
	pool.Start()
	if err := eng.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	eb, ei := busy.Extendability(), idle.Extendability()
	if !eb.Competitor || eb.OptimalVCPUs != 4 {
		t.Fatalf("busy extendability under VRT: %+v", eb)
	}
	if ei.Competitor || ei.OptimalVCPUs != 2 {
		t.Fatalf("idle extendability under VRT: %+v", ei)
	}
}

func TestVRTFreezeConcentratesWeight(t *testing.T) {
	// Per-VM weight under VRT: with one vCPU frozen, the survivor ages
	// at half rate and keeps the domain's share.
	eng, pool := setupVRT(t, 1, false)
	smp, gs := addHogDomain(eng, pool, "smp", 256, 2)
	up, _ := addHogDomain(eng, pool, "up", 256, 1)
	pool.Start()
	eng.After(0, "freeze", func() {
		smp.HypercallCPUFreeze(1, true)
		gs.work[1] = 0
		pool.Block(smp.VCPU(1))
	})
	if err := eng.RunUntil(6 * sim.Second); err != nil {
		t.Fatal(err)
	}
	ratio := float64(smp.TotalRunTime) / float64(up.TotalRunTime)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("per-VM weight not preserved under VRT: ratio %f", ratio)
	}
}

func TestVRTProportionalFairnessProperty(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := sim.NewRand(seed)
		eng := sim.NewEngine(seed)
		cfg := DefaultConfig(2)
		cfg.Policy = PolicyVRT
		pool := NewPool(eng, cfg)
		n := 2 + r.Intn(4)
		doms := make([]*Domain, n)
		weights := make([]float64, n)
		for i := 0; i < n; i++ {
			weights[i] = float64(64 * (1 + r.Intn(8)))
			doms[i], _ = addHogDomain(eng, pool, string(rune('a'+i)), weights[i], 1)
		}
		pool.Start()
		if err := eng.RunUntil(10 * sim.Second); err != nil {
			t.Fatal(err)
		}
		var rsum sim.Time
		for i := range doms {
			rsum += doms[i].TotalRunTime
		}
		if rsum.Seconds() < 19.5 {
			t.Fatalf("seed %d: not work conserving", seed)
		}
		want := waterFill(weights, 0.5)
		for i := range doms {
			got := float64(doms[i].TotalRunTime) / float64(rsum)
			if math.Abs(got-want[i])/want[i] > 0.25 {
				t.Fatalf("seed %d dom %d: share %f, want %f", seed, i, got, want[i])
			}
		}
	}
}

func TestVRTDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64) {
		eng, pool := setupVRT(t, 2, true)
		a, _ := addHogDomain(eng, pool, "a", 256, 2)
		addHogDomain(eng, pool, "b", 128, 2)
		pool.Start()
		if err := eng.RunUntil(2 * sim.Second); err != nil {
			t.Fatal(err)
		}
		return a.TotalRunTime, eng.Processed
	}
	a1, n1 := run()
	a2, n2 := run()
	if a1 != a2 || n1 != n2 {
		t.Fatal("VRT not deterministic")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyCredit.String() != "credit" || PolicyVRT.String() != "vrt" {
		t.Fatal("policy labels")
	}
	if SchedPolicy(9).String() == "" {
		t.Fatal("unknown policy label")
	}
}
