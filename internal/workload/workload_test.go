package workload

import (
	"testing"

	"vscale/internal/guest"
	"vscale/internal/sim"
	"vscale/internal/xen"
)

func newGuest(t *testing.T, pcpus, vcpus int) (*sim.Engine, *xen.Pool, *guest.Kernel) {
	t.Helper()
	eng := sim.NewEngine(5)
	pool := xen.NewPool(eng, xen.DefaultConfig(pcpus))
	dom := pool.AddDomain("vm", 256, vcpus, nil)
	k := guest.NewKernel(dom, guest.DefaultConfig())
	return eng, pool, k
}

func TestAppTracksCompletion(t *testing.T) {
	eng, pool, k := newGuest(t, 2, 2)
	app := NewApp(k, "test")
	doneCalled := false
	app.OnDone = func(a *App) { doneCalled = true }
	app.Go("a", &RandLoop{N: 1, Body: func(_ int, ops *Ops) { ops.Do(guest.Compute(10 * sim.Millisecond)) }})
	app.Go("b", &RandLoop{N: 1, Body: func(_ int, ops *Ops) { ops.Do(guest.Compute(30 * sim.Millisecond)) }})
	if app.Done() {
		t.Fatal("done before running")
	}
	pool.Start()
	k.Boot()
	if err := eng.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if !app.Done() || !doneCalled {
		t.Fatal("app did not complete")
	}
	if et := app.ExecTime(); et < 30*sim.Millisecond || et > 45*sim.Millisecond {
		t.Fatalf("exec time = %v, want ~30ms", et)
	}
	if len(app.Threads()) != 2 {
		t.Fatal("thread list wrong")
	}
}

// TestSeqExhaustsAndExits: a one-pass RandLoop over a fixed action list
// runs the list through, then its thread exits.
func TestSeqExhaustsAndExits(t *testing.T) {
	eng, pool, k := newGuest(t, 1, 1)
	app := NewApp(k, "seq")
	th := app.Go("s", &RandLoop{N: 1, Body: func(_ int, ops *Ops) {
		ops.Do(
			guest.Compute(sim.Millisecond),
			guest.Sleep(sim.Millisecond),
			guest.Compute(sim.Millisecond),
		)
	}})
	pool.Start()
	k.Boot()
	if err := eng.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if th.State() != guest.ThreadExited {
		t.Fatalf("state = %v", th.State())
	}
}

// TestLoopCounts: a finite RandLoop runs its body exactly N times, then
// its app completes.
func TestLoopCounts(t *testing.T) {
	eng, pool, k := newGuest(t, 1, 1)
	app := NewApp(k, "loop")
	iters := 0
	app.Go("l", &RandLoop{N: 5, Body: func(_ int, ops *Ops) {
		iters++
		ops.Do(guest.Compute(sim.Millisecond))
	}})
	pool.Start()
	k.Boot()
	if err := eng.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if iters != 5 {
		t.Fatalf("iterations = %d", iters)
	}
	if !app.Done() {
		t.Fatal("loop app incomplete")
	}
}

func TestRandLoopPlaceholdersAndDynamic(t *testing.T) {
	eng, pool, k := newGuest(t, 1, 1)
	app := NewApp(k, "rand")
	dynamicRan := false
	app.Go("r", &RandLoop{N: 3, Body: func(_ int, ops *Ops) {
		ops.RandCompute(sim.Millisecond, 2*sim.Millisecond)
		ops.RandSleep(sim.Millisecond, 2*sim.Millisecond)
		ops.Dynamic(func(th *guest.Thread, _ int, acts []guest.Action) []guest.Action {
			dynamicRan = true
			return append(acts, guest.Compute(500*sim.Microsecond))
		})
	}})
	pool.Start()
	k.Boot()
	if err := eng.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if !app.Done() || !dynamicRan {
		t.Fatal("rand loop incomplete")
	}
	// Durations must be within the requested bounds: total compute time
	// of the thread is 3 × [1, 2]ms + 3 × 0.5ms.
	th := app.Threads()[0]
	if th.CPUTime < 4500*sim.Microsecond || th.CPUTime > 7500*sim.Microsecond {
		t.Fatalf("cpu time = %v outside placeholder bounds", th.CPUTime)
	}
}

func TestRandLoopForever(t *testing.T) {
	eng, pool, k := newGuest(t, 1, 1)
	app := NewApp(k, "fg")
	n := 0
	app.Go("f", &RandLoop{Forever: true, Body: func(_ int, ops *Ops) {
		n++
		ops.RandCompute(sim.Millisecond, sim.Millisecond)
	}})
	pool.Start()
	k.Boot()
	if err := eng.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n < 90 {
		t.Fatalf("forever loop ran only %d iterations in 100ms", n)
	}
	if app.Done() {
		t.Fatal("forever loop should never be done")
	}
}

func TestKernelBuildGeneratesIPIs(t *testing.T) {
	// Table 2's calibration: ~10-40 reschedule IPIs per vCPU per second.
	eng, pool, k := newGuest(t, 4, 4)
	app := NewApp(k, "kb")
	NewKernelBuild(k, 8).Start(app)
	pool.Start()
	k.Boot()
	if err := eng.RunUntil(4 * sim.Second); err != nil {
		t.Fatal(err)
	}
	var ipis, ticks uint64
	for i := 0; i < 4; i++ {
		ipis += k.CPUStatsOf(i).ReschedIPIs
		ticks += k.CPUStatsOf(i).TimerInterrupts
	}
	perVCPUSec := float64(ipis) / 4 / 4
	if perVCPUSec < 8 || perVCPUSec > 60 {
		t.Fatalf("kernel-build IPIs = %.1f/vCPU/s, want ~20 (paper Table 2)", perVCPUSec)
	}
	// All vCPUs busy: ~1000 ticks/s each.
	if ticks < 14000 {
		t.Fatalf("ticks = %d; build should keep all vCPUs busy", ticks)
	}
}

func TestSlideshowDutyCycle(t *testing.T) {
	eng := sim.NewEngine(9)
	pool := xen.NewPool(eng, xen.DefaultConfig(4))
	dom := pool.AddDomain("bg", 256, 2, nil)
	k := guest.NewKernel(dom, guest.DefaultConfig())
	app := NewApp(k, "show")
	DefaultSlideshow().Start(app)
	pool.Start()
	k.Boot()
	if err := eng.RunUntil(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Duty cycle = VM CPU time over (2 vCPUs × elapsed); bursts 600-1200
	// over idle 150-350 gives roughly 0.65-0.9, minus join-wait slack.
	duty := dom.TotalRunTime.Seconds() / (2 * 20)
	if duty < 0.4 || duty > 0.95 {
		t.Fatalf("slideshow duty = %.2f, want heavy-but-bursty", duty)
	}
}

func TestSlideshowCorrelatedThreadsBurstTogether(t *testing.T) {
	eng := sim.NewEngine(11)
	pool := xen.NewPool(eng, xen.DefaultConfig(4))
	dom := pool.AddDomain("bg", 256, 2, nil)
	k := guest.NewKernel(dom, guest.DefaultConfig())
	app := NewApp(k, "show")
	DefaultSlideshow().Start(app)
	pool.Start()
	k.Boot()
	if err := eng.RunUntil(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Correlated decode threads should consume similar CPU.
	ths := app.Threads()
	a, b := float64(ths[0].CPUTime), float64(ths[1].CPUTime)
	if a == 0 || b == 0 {
		t.Fatal("a slideshow thread never ran")
	}
	ratio := a / b
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("correlated threads diverged: ratio %.2f", ratio)
	}
}

// TestRandLoopFutexBarrierIterationAllocs gates an npb-shaped iteration
// at spin count 0 (OMP_WAIT_POLICY=PASSIVE): a random compute, then a
// barrier whose first arriver futex-sleeps and whose last arriver
// releases it and wakes the sleeper with a reschedule IPI to the other
// vCPU. Once the loop's op buffer is warm, an iteration allocates
// nothing.
func TestRandLoopFutexBarrierIterationAllocs(t *testing.T) {
	eng, pool, k := newGuest(t, 2, 2)
	b := k.NewBarrier(2, 0)
	app := NewApp(k, "npb")
	for i := 0; i < 2; i++ {
		app.Go("omp", &RandLoop{Forever: true, Body: func(_ int, ops *Ops) {
			ops.RandCompute(500*sim.Microsecond, 1500*sim.Microsecond)
			ops.Do(guest.BarrierWait(b))
		}})
	}
	pool.Start()
	k.Boot()
	if err := eng.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	iteration := func() {
		for w := b.Waits; b.Waits == w; {
			if err := eng.RunUntil(eng.Now() + 100*sim.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	waits, ipis := k.FutexWaits, k.CPUStatsOf(0).ReschedIPIs+k.CPUStatsOf(1).ReschedIPIs
	if n := testing.AllocsPerRun(100, iteration); n != 0 {
		t.Fatalf("RandLoop barrier iteration allocated %v times, want 0", n)
	}
	if k.FutexWaits-waits < 100 {
		t.Fatalf("%d futex waits in 101 iterations: the barrier did not sleep", k.FutexWaits-waits)
	}
	if k.CPUStatsOf(0).ReschedIPIs+k.CPUStatsOf(1).ReschedIPIs == ipis {
		t.Fatal("no reschedule IPIs: the wakes were not remote")
	}
}
