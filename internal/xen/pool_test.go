package xen

import (
	"math"
	"testing"

	"vscale/internal/sim"
)

// fakeGuest is a minimal GuestOS for scheduler tests. Each vCPU either
// hogs the CPU forever (work < 0), runs a finite amount of work and then
// blocks (work >= 0), or re-arms work when an event arrives.
type fakeGuest struct {
	eng  *sim.Engine
	pool *Pool
	dom  *Domain

	work      []sim.Time   // remaining work; <0 means infinite
	started   []sim.Time   // segment start when running
	done      []*sim.Timer // fires when a finite segment's work is spent
	delivered []int        // count of DeliverEvent per vcpu
	onEvent   func(vcpu int, port *Port)
}

func newFakeGuest(eng *sim.Engine, pool *Pool, n int) *fakeGuest {
	g := &fakeGuest{
		eng:       eng,
		pool:      pool,
		work:      make([]sim.Time, n),
		started:   make([]sim.Time, n),
		done:      make([]*sim.Timer, n),
		delivered: make([]int, n),
	}
	for v := range g.done {
		g.done[v] = sim.NewTimer(eng, "fake/done", func() {
			g.work[v] = 0
			g.pool.Block(g.dom.VCPU(v))
		})
	}
	return g
}

func (g *fakeGuest) Dispatched(v int) {
	g.started[v] = g.eng.Now()
	if g.work[v] < 0 {
		return // hog: run until preempted
	}
	g.done[v].Reset(g.work[v])
}

func (g *fakeGuest) Descheduled(v int) {
	if g.done[v].Armed() {
		g.done[v].Stop()
		g.work[v] -= g.eng.Now() - g.started[v]
		if g.work[v] < 0 {
			g.work[v] = 0
		}
	}
}

func (g *fakeGuest) DeliverEvent(v int, port *Port) {
	g.delivered[v]++
	if g.onEvent != nil {
		g.onEvent(v, port)
	}
}

// hog marks vcpu as an infinite CPU consumer.
func (g *fakeGuest) hog(vcpu int) { g.work[vcpu] = -1 }

// every runs fn each period from now on. Like the pool's own periodic
// timers, each firing re-arms the next at the end of its body.
func every(eng *sim.Engine, label string, period sim.Time, fn func()) {
	var t *sim.Timer
	t = sim.NewTimer(eng, label, func() {
		fn()
		t.Reset(period)
	})
	t.Reset(period)
}

func setup(t *testing.T, pcpus int, vscale bool) (*sim.Engine, *Pool) {
	t.Helper()
	eng := sim.NewEngine(1)
	pool := NewPool(eng, DefaultConfig(pcpus))
	if vscale {
		pool.EnableVScale()
	}
	return eng, pool
}

// addHogDomain creates a domain whose vCPUs all hog the CPU.
func addHogDomain(eng *sim.Engine, pool *Pool, name string, weight float64, nvcpus int) (*Domain, *fakeGuest) {
	g := newFakeGuest(eng, pool, nvcpus)
	d := pool.AddDomain(name, weight, nvcpus, g)
	g.dom = d
	for i := 0; i < nvcpus; i++ {
		g.hog(i)
		d.KickVCPU(i)
	}
	return d, g
}

func TestSingleDomainFullCPU(t *testing.T) {
	eng, pool := setup(t, 1, false)
	d, _ := addHogDomain(eng, pool, "a", 256, 1)
	pool.Start()
	if err := eng.RunUntil(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	pool.burnRunning(d.VCPU(0))
	got := d.TotalRunTime.Seconds()
	if math.Abs(got-3) > 0.01 {
		t.Fatalf("run time = %fs, want ~3s", got)
	}
	if d.TotalWaitTime > 10*sim.Millisecond {
		t.Fatalf("unexpected waiting: %v", d.TotalWaitTime)
	}
}

func TestTwoDomainsFairSplit(t *testing.T) {
	eng, pool := setup(t, 1, false)
	a, _ := addHogDomain(eng, pool, "a", 256, 1)
	b, _ := addHogDomain(eng, pool, "b", 256, 1)
	pool.Start()
	if err := eng.RunUntil(6 * sim.Second); err != nil {
		t.Fatal(err)
	}
	ra, rb := a.TotalRunTime.Seconds(), b.TotalRunTime.Seconds()
	if math.Abs(ra-rb) > 0.2 {
		t.Fatalf("unfair split: a=%fs b=%fs", ra, rb)
	}
	if ra+rb < 5.9 {
		t.Fatalf("not work conserving: total %fs of 6s", ra+rb)
	}
	// Each vCPU spends roughly half its life waiting in the runqueue.
	if a.TotalWaitTime < 2*sim.Second {
		t.Fatalf("expected substantial scheduling delay, got %v", a.TotalWaitTime)
	}
}

func TestWeightedSharing(t *testing.T) {
	eng, pool := setup(t, 1, false)
	a, _ := addHogDomain(eng, pool, "a", 512, 1)
	b, _ := addHogDomain(eng, pool, "b", 256, 1)
	pool.Start()
	if err := eng.RunUntil(9 * sim.Second); err != nil {
		t.Fatal(err)
	}
	ratio := float64(a.TotalRunTime) / float64(b.TotalRunTime)
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("weight ratio 2:1 not honoured: run ratio = %f", ratio)
	}
}

func TestWorkConservingWithIdleDomain(t *testing.T) {
	eng, pool := setup(t, 1, false)
	busy, _ := addHogDomain(eng, pool, "busy", 256, 1)
	// Idle domain: blocks immediately after boot.
	gIdle := newFakeGuest(eng, pool, 1)
	dIdle := pool.AddDomain("idle", 256, 1, gIdle)
	gIdle.dom = dIdle
	dIdle.KickVCPU(0)
	pool.Start()
	if err := eng.RunUntil(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	pool.burnRunning(busy.VCPU(0))
	if busy.TotalRunTime.Seconds() < 2.95 {
		t.Fatalf("busy domain got %fs of 3s despite idle competitor", busy.TotalRunTime.Seconds())
	}
}

func TestMultiPCPUStealSpreadsVCPUs(t *testing.T) {
	eng, pool := setup(t, 2, false)
	d, _ := addHogDomain(eng, pool, "smp", 256, 2)
	pool.Start()
	if err := eng.RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		pool.burnRunning(d.VCPU(i))
		if got := d.VCPU(i).RunTime.Seconds(); math.Abs(got-2) > 0.1 {
			t.Fatalf("vCPU%d ran %fs, want ~2s (work stealing should spread them)", i, got)
		}
	}
}

func TestBoostLatencyForInteractiveVM(t *testing.T) {
	eng, pool := setup(t, 1, false)
	addHogDomain(eng, pool, "hog", 256, 1)

	gInt := newFakeGuest(eng, pool, 1)
	dInt := pool.AddDomain("interactive", 256, 1, gInt)
	gInt.dom = dInt
	gInt.onEvent = func(v int, port *Port) {
		if port.Kind == PortIPI {
			// 1 ms of work per request, then block again.
			gInt.work[v] = sim.Millisecond
			gInt.Descheduled(v) // reset segment bookkeeping
			gInt.Dispatched(v)
		}
	}
	dInt.KickVCPU(0)

	// Poke the interactive VM every 100 ms.
	every(eng, "poke", 100*sim.Millisecond, func() { dInt.KickVCPU(0) })
	pool.Start()
	if err := eng.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	v := dInt.VCPU(0)
	if v.Wakeups < 40 {
		t.Fatalf("wakeups = %d, want ~50", v.Wakeups)
	}
	avgWait := float64(v.WaitTime) / float64(v.Wakeups)
	// With boost-on-wake, the interactive vCPU preempts the hog almost
	// immediately instead of waiting up to a 30 ms slice.
	if avgWait > float64(2*sim.Millisecond) {
		t.Fatalf("interactive avg wakeup delay = %v, boost should keep it ~0", sim.Time(avgWait))
	}
}

func TestEventDeliveryToRunnableIsDelayed(t *testing.T) {
	eng, pool := setup(t, 1, false)
	_, ga := addHogDomain(eng, pool, "a", 256, 1)
	db, gb := addHogDomain(eng, pool, "b", 256, 1)
	pool.Start()

	var deliveredAt sim.Time
	gb.onEvent = func(v int, port *Port) { deliveredAt = eng.Now() }

	// Find a moment when b is queued (not running) and notify it.
	var sentAt sim.Time
	eng.After(45*sim.Millisecond, "probe", func() {
		vb := db.VCPU(0)
		if vb.State() != StateRunnable {
			t.Errorf("expected b runnable at 45ms, got %v", vb.State())
			return
		}
		sentAt = eng.Now()
		pool.Notify(db.IPIPort(0))
	})
	_ = ga
	if err := eng.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if sentAt == 0 || deliveredAt == 0 {
		t.Fatal("probe did not run")
	}
	delay := deliveredAt - sentAt
	if delay < 5*sim.Millisecond {
		t.Fatalf("delivery to a queued vCPU should wait for dispatch; delay = %v", delay)
	}
	if delay > 35*sim.Millisecond {
		t.Fatalf("delay = %v exceeds one slice", delay)
	}
}

func TestTimerWakesBlockedVCPU(t *testing.T) {
	eng, pool := setup(t, 1, false)
	g := newFakeGuest(eng, pool, 1)
	d := pool.AddDomain("sleepy", 256, 1, g)
	g.dom = d
	var woke sim.Time
	g.onEvent = func(v int, port *Port) {
		if port.Kind == PortVIRQTimer {
			woke = eng.Now()
		}
	}
	d.KickVCPU(0)
	pool.Start()
	eng.After(sim.Millisecond, "arm", func() {
		d.VCPU(0).SetTimer(eng.Now() + 500*sim.Millisecond)
	})
	if err := eng.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if woke < 501*sim.Millisecond-sim.Microsecond || woke > 502*sim.Millisecond {
		t.Fatalf("timer wake at %v, want ~501ms", woke)
	}
}

// TestEnableVScaleOneSwitch: EnableVScale is the pool's only vScale
// switch. Before Start it builds the timer without arming it, so no
// recalculation runs until one period after Start; on a started pool it
// arms at once, one period after the call. A second call changes
// nothing: one timer, one recalculation per period.
func TestEnableVScaleOneSwitch(t *testing.T) {
	ticksAt := func(t *testing.T, eng *sim.Engine, pool *Pool, at sim.Time, want uint64) {
		t.Helper()
		if err := eng.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		if pool.VScaleTicks != want {
			t.Fatalf("at %v: %d recalculations, want %d", at, pool.VScaleTicks, want)
		}
	}
	t.Run("before Start", func(t *testing.T) {
		eng, pool := setup(t, 2, false)
		d, _ := addHogDomain(eng, pool, "a", 256, 2)
		pool.EnableVScale()
		start := 5*VScalePeriod + 3*sim.Millisecond
		ticksAt(t, eng, pool, start, 0)
		pool.Start()
		pool.EnableVScale()
		ticksAt(t, eng, pool, start+VScalePeriod-1, 0)
		ticksAt(t, eng, pool, start+VScalePeriod, 1)
		if d.Extendability().OptimalVCPUs == 0 {
			t.Fatal("the first recalculation published no extendability")
		}
		ticksAt(t, eng, pool, start+10*VScalePeriod, 10)
	})
	t.Run("after Start", func(t *testing.T) {
		eng, pool := setup(t, 2, false)
		addHogDomain(eng, pool, "a", 256, 2)
		pool.Start()
		call := 3*VScalePeriod + 7*sim.Millisecond
		ticksAt(t, eng, pool, call, 0)
		pool.EnableVScale()
		pool.EnableVScale()
		ticksAt(t, eng, pool, call+VScalePeriod-1, 0)
		ticksAt(t, eng, pool, call+VScalePeriod, 1)
		ticksAt(t, eng, pool, call+10*VScalePeriod, 10)
	})
}

func TestVScaleTickerComputesExtendability(t *testing.T) {
	eng, pool := setup(t, 4, true)
	busy, _ := addHogDomain(eng, pool, "busy", 256, 4)
	gIdle := newFakeGuest(eng, pool, 2)
	idle := pool.AddDomain("idle", 128, 2, gIdle)
	gIdle.dom = idle
	idle.KickVCPU(0)
	pool.Start()
	if err := eng.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if pool.VScaleTicks < 90 {
		t.Fatalf("vscale ticks = %d, want ~100", pool.VScaleTicks)
	}
	eb, ei := busy.Extendability(), idle.Extendability()
	if !eb.Competitor {
		t.Fatal("busy domain should be a competitor")
	}
	if ei.Competitor {
		t.Fatal("idle domain should be a releaser")
	}
	// busy should be able to extend to all 4 pCPUs (idle releases
	// nearly all of its fair share).
	if eb.OptimalVCPUs != 4 {
		t.Fatalf("busy optimal vCPUs = %d, want 4", eb.OptimalVCPUs)
	}
	// idle keeps its fair share: 128/384 * 4 = 1.33 pCPUs → 2 vCPUs.
	if ei.OptimalVCPUs != 2 {
		t.Fatalf("idle optimal vCPUs = %d, want 2", ei.OptimalVCPUs)
	}
}

func TestFreezeShiftsCreditsToActiveSiblings(t *testing.T) {
	// One 2-vCPU domain vs one 1-vCPU domain on 1 pCPU, equal weights.
	// After freezing vCPU1 of the SMP domain, its vCPU0 should still
	// receive the domain's full (per-VM) share: ~50% of the pCPU.
	eng, pool := setup(t, 1, false)
	smp, gs := addHogDomain(eng, pool, "smp", 256, 2)
	up, _ := addHogDomain(eng, pool, "up", 256, 1)
	pool.Start()

	eng.After(3*sim.Second, "freeze", func() {
		// Guest-side effect: vCPU1 stops running (blocks) and the guest
		// tells the hypervisor it is frozen.
		smp.HypercallCPUFreeze(1, true)
		gs.work[1] = 0
		if smp.VCPU(1).State() == StateRunning {
			pool.Block(smp.VCPU(1))
		} else if smp.VCPU(1).State() == StateRunnable {
			pool.Block(smp.VCPU(1))
		}
	})
	if err := eng.RunUntil(6 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Measure the second 3-second window only.
	smpRun := smp.TotalRunTime
	upRun := up.TotalRunTime
	_ = upRun
	// Over the whole 6s: first 3s smp gets 1/2 (two vcpus sharing 50%),
	// second 3s smp vCPU0 alone still gets ~1/2. Total ≈ 3s.
	if got := smpRun.Seconds(); math.Abs(got-3) > 0.3 {
		t.Fatalf("smp domain ran %fs of 6s, want ~3s (per-VM weight must hold after freeze)", got)
	}
	if smp.ActiveVCPUs() != 1 {
		t.Fatalf("active vCPUs = %d, want 1", smp.ActiveVCPUs())
	}
}

func TestPerVCPUWeightAblationLosesShareWhenFrozen(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(1)
	cfg.PerVCPUWeight = true
	pool := NewPool(eng, cfg)
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
	// With per-vCPU weight the frozen domain's share halves: ~1/3 vs 2/3.
	ratio := float64(up.TotalRunTime) / float64(smp.TotalRunTime)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("per-vCPU-weight ratio = %f, want ~2 (unfairness the paper fixes)", ratio)
	}
}

func TestProportionalFairnessProperty(t *testing.T) {
	// Random weights, all-hog domains: long-run CPU shares track weights.
	for seed := uint64(1); seed <= 5; seed++ {
		r := sim.NewRand(seed)
		eng := sim.NewEngine(seed)
		pool := NewPool(eng, DefaultConfig(2))
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
			t.Fatalf("seed %d: not work conserving (%fs of 20)", seed, rsum.Seconds())
		}
		// Expected shares follow weighted max-min (water-filling): a
		// 1-vCPU domain is structurally capped at one pCPU (half the
		// 2-pCPU pool), and its surplus is redistributed by weight.
		want := waterFill(weights, 0.5)
		for i := range doms {
			got := float64(doms[i].TotalRunTime) / float64(rsum)
			if math.Abs(got-want[i])/want[i] > 0.25 {
				t.Fatalf("seed %d dom %d: share %f, want %f (weights %v)", seed, i, got, want[i], weights)
			}
		}
	}
}

// waterFill computes weighted max-min fair shares where each entity is
// capped at capEach of the total.
func waterFill(weights []float64, capEach float64) []float64 {
	n := len(weights)
	share := make([]float64, n)
	capped := make([]bool, n)
	remaining := 1.0
	for {
		var wsum float64
		for i := range weights {
			if !capped[i] {
				wsum += weights[i]
			}
		}
		if wsum == 0 || remaining <= 1e-12 {
			break
		}
		anyCapped := false
		for i := range weights {
			if capped[i] {
				continue
			}
			s := weights[i] / wsum * remaining
			if share[i]+s >= capEach {
				remaining -= capEach - share[i]
				share[i] = capEach
				capped[i] = true
				anyCapped = true
			}
		}
		if !anyCapped {
			for i := range weights {
				if !capped[i] {
					share[i] += weights[i] / wsum * remaining
				}
			}
			break
		}
	}
	return share
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, sim.Time, uint64) {
		eng, pool := setup(t, 2, true)
		a, _ := addHogDomain(eng, pool, "a", 256, 2)
		b, _ := addHogDomain(eng, pool, "b", 128, 2)
		pool.Start()
		if err := eng.RunUntil(2 * sim.Second); err != nil {
			t.Fatal(err)
		}
		return a.TotalRunTime, b.TotalWaitTime, eng.Processed
	}
	r1a, r1b, n1 := run()
	r2a, r2b, n2 := run()
	if r1a != r2a || r1b != r2b || n1 != n2 {
		t.Fatalf("simulation not deterministic: (%v,%v,%d) vs (%v,%v,%d)", r1a, r1b, n1, r2a, r2b, n2)
	}
}

func TestYieldDemotesAndRotates(t *testing.T) {
	eng, pool := setup(t, 1, false)
	a, _ := addHogDomain(eng, pool, "a", 256, 1)
	b, _ := addHogDomain(eng, pool, "b", 256, 1)
	pool.Start()
	yields := 0
	every(eng, "yield", 7*sim.Millisecond, func() {
		va := a.VCPU(0)
		if va.State() == StateRunning {
			pool.Yield(va)
			yields++
		}
	})
	if err := eng.RunUntil(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if yields == 0 {
		t.Fatal("no yields exercised")
	}
	// Yielding must not starve the yielder entirely, nor let it keep
	// full share.
	pool.burnRunning(a.VCPU(0))
	pool.burnRunning(b.VCPU(0))
	if a.TotalRunTime > b.TotalRunTime {
		t.Fatalf("yielder outran non-yielder: %v vs %v", a.TotalRunTime, b.TotalRunTime)
	}
	if a.TotalRunTime < 200*sim.Millisecond {
		t.Fatalf("yielder starved: %v", a.TotalRunTime)
	}
}

func TestRebindIRQ(t *testing.T) {
	eng, pool := setup(t, 1, false)
	d, g := addHogDomain(eng, pool, "a", 256, 2)
	irq := d.AllocIRQ("eth0", 0)
	pool.Start()
	var deliveredTo []int
	g.onEvent = func(v int, port *Port) {
		if port.Kind == PortIRQ {
			deliveredTo = append(deliveredTo, v)
		}
	}
	eng.After(5*sim.Millisecond, "n1", func() { pool.Notify(irq) })
	eng.After(10*sim.Millisecond, "rebind", func() { d.RebindIRQ(irq, 1) })
	eng.After(15*sim.Millisecond, "n2", func() { pool.Notify(irq) })
	if err := eng.RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(deliveredTo) != 2 || deliveredTo[0] != 0 || deliveredTo[1] != 1 {
		t.Fatalf("IRQ deliveries = %v, want [0 1]", deliveredTo)
	}
}

func TestFreezeMasterVCPUPanics(t *testing.T) {
	eng, pool := setup(t, 1, false)
	d, _ := addHogDomain(eng, pool, "a", 256, 2)
	_ = eng
	defer func() {
		if recover() == nil {
			t.Fatal("freezing vCPU0 must panic")
		}
	}()
	d.HypercallCPUFreeze(0, true)
}

func TestPoolIdleAccounting(t *testing.T) {
	eng, pool := setup(t, 2, false)
	addHogDomain(eng, pool, "a", 256, 1)
	pool.Start()
	if err := eng.RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	idle := pool.Idle()
	// One hog on two pCPUs: one pCPU idles the whole time.
	if math.Abs(idle.Seconds()-2) > 0.05 {
		t.Fatalf("idle = %v, want ~2s", idle)
	}
}
