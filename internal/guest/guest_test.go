package guest

import (
	"math"
	"testing"

	"vscale/internal/sim"
	"vscale/internal/xen"
)

// seq is a Program that yields a fixed list of actions, then exits.
type seq struct {
	actions []Action
	i       int
}

func (s *seq) Next(t *Thread) Action {
	if s.i >= len(s.actions) {
		return Exit()
	}
	a := s.actions[s.i]
	s.i++
	return a
}

// loop repeats body actions n times, then exits.
type loop struct {
	body func(iter int) []Action
	n    int
	i    int
	buf  []Action
}

func (l *loop) Next(t *Thread) Action {
	for len(l.buf) == 0 {
		if l.i >= l.n {
			return Exit()
		}
		l.buf = l.body(l.i)
		l.i++
	}
	a := l.buf[0]
	l.buf = l.buf[1:]
	return a
}

type testEnv struct {
	eng  *sim.Engine
	pool *xen.Pool
	dom  *xen.Domain
	k    *Kernel
	done int
}

// newEnv builds one VM on a pool of pcpus; vscale switches on the pool's
// extension and the guest daemon, which run starts with the pool and
// the kernel.
func newEnv(t *testing.T, pcpus, vcpus int, mod func(*Config), vscale bool) *testEnv {
	t.Helper()
	eng := sim.NewEngine(7)
	pool := xen.NewPool(eng, xen.DefaultConfig(pcpus))
	dom := pool.AddDomain("vm", 256, vcpus, nil)
	cfg := DefaultConfig()
	if mod != nil {
		mod(&cfg)
	}
	k := NewKernel(dom, cfg)
	if vscale {
		pool.EnableVScale()
		k.StartVScaleDaemon()
	}
	return &testEnv{eng: eng, pool: pool, dom: dom, k: k}
}

func (e *testEnv) spawn(name string, acts ...Action) *Thread {
	return e.k.Spawn(name, Uthread, &seq{actions: acts}, func(*Thread) { e.done++ })
}

func (e *testEnv) run(t *testing.T, until sim.Time) {
	t.Helper()
	e.pool.Start()
	e.k.Boot()
	if err := e.eng.RunUntil(until); err != nil {
		t.Fatal(err)
	}
}

func TestSingleThreadCompute(t *testing.T) {
	e := newEnv(t, 1, 1, nil, false)
	th := e.spawn("w", Compute(100*sim.Millisecond))
	e.run(t, sim.Second)
	if th.State() != ThreadExited {
		t.Fatalf("state = %v", th.State())
	}
	el := th.ExitAt - th.StartAt
	if el < 100*sim.Millisecond || el > 102*sim.Millisecond {
		t.Fatalf("elapsed = %v, want ~100ms", el)
	}
	if th.CPUTime != 100*sim.Millisecond {
		t.Fatalf("cpu time = %v", th.CPUTime)
	}
	if e.done != 1 {
		t.Fatal("exit callback not invoked")
	}
}

func TestThreadsShareOneVCPU(t *testing.T) {
	e := newEnv(t, 1, 1, nil, false)
	a := e.spawn("a", Compute(50*sim.Millisecond))
	b := e.spawn("b", Compute(50*sim.Millisecond))
	e.run(t, sim.Second)
	if a.State() != ThreadExited || b.State() != ThreadExited {
		t.Fatal("threads did not finish")
	}
	// Round-robin: both finish near 100ms, not one at 50ms and one at 100.
	ea, eb := a.ExitAt, b.ExitAt
	if eb < ea {
		ea, eb = eb, ea
	}
	if eb-ea > 10*sim.Millisecond {
		t.Fatalf("finish times too far apart: %v vs %v (timeslicing broken)", ea, eb)
	}
	if eb < 99*sim.Millisecond {
		t.Fatalf("total = %v, want ~100ms", eb)
	}
}

func TestLoadBalancingSpreadsThreads(t *testing.T) {
	e := newEnv(t, 4, 4, nil, false)
	ths := make([]*Thread, 4)
	for i := range ths {
		ths[i] = e.spawn("w", Compute(200*sim.Millisecond))
	}
	e.run(t, sim.Second)
	// With 4 vCPUs on 4 pCPUs, all should finish in ~200ms (parallel).
	for i, th := range ths {
		if th.State() != ThreadExited {
			t.Fatalf("thread %d did not finish", i)
		}
		if th.ExitAt > 230*sim.Millisecond {
			t.Fatalf("thread %d finished at %v; balancing failed to spread", i, th.ExitAt)
		}
	}
}

func TestSleepWakesOnTime(t *testing.T) {
	e := newEnv(t, 1, 1, nil, false)
	th := e.spawn("s",
		Compute(sim.Millisecond),
		Sleep(200*sim.Millisecond),
		Compute(sim.Millisecond),
	)
	e.run(t, sim.Second)
	if th.State() != ThreadExited {
		t.Fatalf("state = %v", th.State())
	}
	el := th.ExitAt - th.StartAt
	if el < 202*sim.Millisecond || el > 210*sim.Millisecond {
		t.Fatalf("elapsed = %v, want ~202ms", el)
	}
	if th.Sleeps != 1 || th.WakeUps != 1 {
		t.Fatalf("sleeps/wakeups = %d/%d", th.Sleeps, th.WakeUps)
	}
}

func TestMutexMutualExclusionAndHandoff(t *testing.T) {
	e := newEnv(t, 2, 2, nil, false)
	m := e.k.NewMutex()
	mk := func() Program {
		return &loop{n: 20, body: func(int) []Action {
			return []Action{
				Lock(m),
				Compute(500 * sim.Microsecond),
				Unlock(m),
				Compute(100 * sim.Microsecond),
			}
		}}
	}
	var done int
	for i := 0; i < 2; i++ {
		e.k.Spawn("locker", Uthread, mk(), func(*Thread) { done++ })
	}
	e.run(t, sim.Second)
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if m.Locked() {
		t.Fatal("mutex left locked")
	}
	if m.Acquisitions < 40 {
		t.Fatalf("acquisitions = %d, want >= 40", m.Acquisitions)
	}
	if m.Contended == 0 {
		t.Fatal("expected contention between the two lockers")
	}
}

func TestCondWaitSignal(t *testing.T) {
	e := newEnv(t, 2, 2, nil, false)
	m := e.k.NewMutex()
	cv := e.k.NewCond()
	var waiterDone, signalerDone bool
	e.k.Spawn("waiter", Uthread, &seq{actions: []Action{
		Lock(m),
		CondWait(cv, m),
		Unlock(m),
	}}, func(*Thread) { waiterDone = true })
	e.k.Spawn("signaler", Uthread, &seq{actions: []Action{
		Compute(50 * sim.Millisecond),
		CondSignal(cv),
	}}, func(*Thread) { signalerDone = true })
	e.run(t, sim.Second)
	if !waiterDone || !signalerDone {
		t.Fatalf("waiter=%v signaler=%v", waiterDone, signalerDone)
	}
	if cv.Signals != 1 {
		t.Fatalf("signals = %d", cv.Signals)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := newEnv(t, 2, 2, nil, false)
	m := e.k.NewMutex()
	cv := e.k.NewCond()
	done := 0
	for i := 0; i < 5; i++ {
		e.k.Spawn("waiter", Uthread, &seq{actions: []Action{
			Lock(m),
			CondWait(cv, m),
			Unlock(m),
		}}, func(*Thread) { done++ })
	}
	e.k.Spawn("caster", Uthread, &seq{actions: []Action{
		Compute(20 * sim.Millisecond),
		CondBroadcast(cv),
	}}, func(*Thread) { done++ })
	e.run(t, sim.Second)
	if done != 6 {
		t.Fatalf("done = %d, want 6", done)
	}
}

func TestBarrierSpinFastPath(t *testing.T) {
	// Dedicated CPUs, heavy spin budget: barrier latency is tiny and no
	// futex sleeps happen.
	e := newEnv(t, 4, 4, nil, false)
	b := e.k.NewBarrier(4, SpinBudgetFromCount(30_000_000_000))
	done := 0
	for i := 0; i < 4; i++ {
		e.k.Spawn("omp", Uthread, &loop{n: 50, body: func(int) []Action {
			return []Action{Compute(sim.Millisecond), BarrierWait(b)}
		}}, func(*Thread) { done++ })
	}
	e.run(t, sim.Second)
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	if b.Waits != 50 {
		t.Fatalf("barrier episodes = %d, want 50", b.Waits)
	}
	if e.k.FutexWaits != 0 {
		t.Fatalf("futex waits = %d, want 0 with huge spin budget on dedicated CPUs", e.k.FutexWaits)
	}
}

func TestBarrierPassivePolicyUsesFutex(t *testing.T) {
	e := newEnv(t, 4, 4, nil, false)
	b := e.k.NewBarrier(4, 0) // OMP_WAIT_POLICY=PASSIVE
	done := 0
	for i := 0; i < 4; i++ {
		i := i
		e.k.Spawn("omp", Uthread, &loop{n: 20, body: func(int) []Action {
			// Skewed compute so waiters really sleep.
			return []Action{Compute(sim.Time(i+1) * sim.Millisecond), BarrierWait(b)}
		}}, func(*Thread) { done++ })
	}
	e.run(t, 2*sim.Second)
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	if b.Waits != 20 {
		t.Fatalf("episodes = %d", b.Waits)
	}
	if e.k.FutexWaits == 0 {
		t.Fatal("passive barrier should sleep via futex")
	}
	// Remote wakeups must have produced reschedule IPIs.
	var ipis uint64
	for i := 0; i < 4; i++ {
		ipis += e.k.CPUStatsOf(i).ReschedIPIs
	}
	if ipis == 0 {
		t.Fatal("no reschedule IPIs observed")
	}
}

func TestBarrierSpinBudgetFallsBack(t *testing.T) {
	// Small spin budget + skew larger than the budget → spinners fall
	// back to futex sleep, yet everything still completes.
	e := newEnv(t, 2, 2, nil, false)
	b := e.k.NewBarrier(2, 100*sim.Microsecond)
	done := 0
	e.k.Spawn("fast", Uthread, &loop{n: 10, body: func(int) []Action {
		return []Action{Compute(100 * sim.Microsecond), BarrierWait(b)}
	}}, func(*Thread) { done++ })
	e.k.Spawn("slow", Uthread, &loop{n: 10, body: func(int) []Action {
		return []Action{Compute(5 * sim.Millisecond), BarrierWait(b)}
	}}, func(*Thread) { done++ })
	e.run(t, sim.Second)
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if e.k.FutexWaits == 0 {
		t.Fatal("expected futex fallback after spin budget")
	}
	if e.k.CPUStatsOf(0).UserSpinTime+e.k.CPUStatsOf(1).UserSpinTime == 0 {
		t.Fatal("expected some user spin time")
	}
}

func TestSpinVarPipeline(t *testing.T) {
	// lu-style ad-hoc sync: consumer spins for each generation the
	// producer publishes.
	e := newEnv(t, 2, 2, nil, false)
	sv := e.k.NewSpinVar()
	done := 0
	e.k.Spawn("producer", Uthread, &loop{n: 10, body: func(int) []Action {
		return []Action{Compute(sim.Millisecond), SpinSet(sv)}
	}}, func(*Thread) { done++ })
	e.k.Spawn("consumer", Uthread, &loop{n: 10, body: func(i int) []Action {
		return []Action{SpinWait(sv, uint64(i+1)), Compute(500 * sim.Microsecond)}
	}}, func(*Thread) { done++ })
	e.run(t, sim.Second)
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if sv.Gen() != 10 {
		t.Fatalf("generation = %d", sv.Gen())
	}
}

func TestTimerInterruptRate(t *testing.T) {
	// Paper Table 2: a busy vCPU takes ~1000 timer interrupts/s; an idle
	// one takes none (dynamic ticks).
	e := newEnv(t, 2, 2, nil, false)
	e.spawn("busy", Compute(2*sim.Second))
	e.run(t, sim.Second)
	s0, s1 := e.k.CPUStatsOf(0), e.k.CPUStatsOf(1)
	busyTicks := s0.TimerInterrupts + s1.TimerInterrupts
	if busyTicks < 950 || busyTicks > 1050 {
		t.Fatalf("busy vCPU ticks = %d, want ~1000", busyTicks)
	}
	// Exactly one CPU should be ticking.
	if s0.TimerInterrupts != 0 && s1.TimerInterrupts != 0 {
		t.Fatalf("both CPUs ticked (%d, %d); dynamic ticks broken", s0.TimerInterrupts, s1.TimerInterrupts)
	}
}

func TestDeviceInterruptWakesSleeper(t *testing.T) {
	e := newEnv(t, 1, 2, nil, false)
	dev := e.k.NewDevice("net", 0, 5*sim.Microsecond)
	th := e.k.Spawn("io", Uthread, &seq{actions: []Action{
		IO(dev, 10*sim.Millisecond),
		Compute(sim.Millisecond),
	}}, nil)
	e.run(t, sim.Second)
	if th.State() != ThreadExited {
		t.Fatalf("state = %v", th.State())
	}
	if dev.Interrupts != 1 {
		t.Fatalf("device interrupts = %d", dev.Interrupts)
	}
	el := th.ExitAt - th.StartAt
	if el < 11*sim.Millisecond || el > 15*sim.Millisecond {
		t.Fatalf("elapsed = %v, want ~11ms", el)
	}
}

func TestFreezeMigratesThreadsAndQuiesces(t *testing.T) {
	// Paper Table 2 shape: after freezing a vCPU it receives no timer
	// interrupts and no IPIs, while the others keep running.
	e := newEnv(t, 4, 4, nil, false)
	for i := 0; i < 8; i++ {
		e.k.Spawn("build", Uthread, &loop{n: 100000, body: func(int) []Action {
			return []Action{Compute(5 * sim.Millisecond), Sleep(sim.Millisecond)}
		}}, nil)
	}
	e.pool.Start()
	e.k.Boot()
	if err := e.eng.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	before := e.k.CPUStatsOf(3)
	if before.TimerInterrupts < 500 {
		t.Fatalf("vCPU3 barely ran before freeze: %d ticks", before.TimerInterrupts)
	}
	if err := e.k.FreezeVCPU(3); err != nil {
		t.Fatal(err)
	}
	if err := e.eng.RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	after := e.k.CPUStatsOf(3)
	// Allow the in-flight tick plus the freeze IPI itself.
	if after.TimerInterrupts-before.TimerInterrupts > 2 {
		t.Fatalf("frozen vCPU took %d ticks after freeze", after.TimerInterrupts-before.TimerInterrupts)
	}
	if after.ReschedIPIs-before.ReschedIPIs > 1 {
		t.Fatalf("frozen vCPU took %d IPIs after freeze", after.ReschedIPIs-before.ReschedIPIs)
	}
	if e.k.ActiveVCPUs() != 3 {
		t.Fatalf("active = %d", e.k.ActiveVCPUs())
	}
	// Threads still make progress on the remaining vCPUs.
	var ticks uint64
	for i := 0; i < 3; i++ {
		ticks += e.k.CPUStatsOf(i).TimerInterrupts
	}
	if ticks < 2500 {
		t.Fatalf("survivor ticks = %d; workload stalled after freeze", ticks)
	}
}

func TestUnfreezeRebalances(t *testing.T) {
	e := newEnv(t, 2, 2, nil, false)
	for i := 0; i < 4; i++ {
		e.k.Spawn("w", Uthread, &loop{n: 1000000, body: func(int) []Action {
			return []Action{Compute(sim.Millisecond)}
		}}, nil)
	}
	e.pool.Start()
	e.k.Boot()
	if err := e.eng.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := e.k.FreezeVCPU(1); err != nil {
		t.Fatal(err)
	}
	if err := e.eng.RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := e.k.cpus[1].load(); got != 0 {
		t.Fatalf("frozen CPU still has load %d", got)
	}
	if err := e.k.UnfreezeVCPU(1); err != nil {
		t.Fatal(err)
	}
	if err := e.eng.RunUntil(400 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := e.k.cpus[1].load(); got == 0 {
		t.Fatal("unfrozen CPU pulled no work")
	}
	if e.k.ActiveVCPUs() != 2 {
		t.Fatalf("active = %d", e.k.ActiveVCPUs())
	}
}

func TestFreezeErrors(t *testing.T) {
	e := newEnv(t, 1, 2, nil, false)
	if err := e.k.FreezeVCPU(0); err == nil {
		t.Fatal("freezing vCPU0 must fail")
	}
	if err := e.k.FreezeVCPU(5); err == nil {
		t.Fatal("freezing out-of-range must fail")
	}
	if err := e.k.UnfreezeVCPU(1); err == nil {
		t.Fatal("unfreezing a non-frozen vCPU must fail")
	}
	if err := e.k.FreezeVCPU(1); err != nil {
		t.Fatal(err)
	}
	if err := e.k.FreezeVCPU(1); err == nil {
		t.Fatal("double freeze must fail")
	}
}

func TestDaemonScalesDownUnderContention(t *testing.T) {
	// A 4-vCPU VM sharing 2 pCPUs with a busy 4-vCPU competitor: the
	// daemon should shrink towards ~1-2 active vCPUs.
	eng := sim.NewEngine(3)
	pool := xen.NewPool(eng, xen.DefaultConfig(2))
	pool.EnableVScale()

	domA := pool.AddDomain("vm", 256, 4, nil)
	kA := NewKernel(domA, DefaultConfig())
	kA.StartVScaleDaemon()
	for i := 0; i < 4; i++ {
		kA.Spawn("w", Uthread, &loop{n: 1 << 30, body: func(int) []Action {
			return []Action{Compute(sim.Millisecond)}
		}}, nil)
	}

	domB := pool.AddDomain("bg", 256, 4, nil)
	kB := NewKernel(domB, DefaultConfig())
	for i := 0; i < 4; i++ {
		kB.Spawn("w", Uthread, &loop{n: 1 << 30, body: func(int) []Action {
			return []Action{Compute(sim.Millisecond)}
		}}, nil)
	}

	pool.Start()
	kA.Boot()
	kB.Boot()
	if err := eng.RunUntil(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	active := kA.ActiveVCPUs()
	if active > 2 {
		t.Fatalf("active vCPUs = %d, want <= 2 (fair share is 1 pCPU)", active)
	}
	reads, decisions := kA.DaemonStats()
	if reads < 250 {
		t.Fatalf("daemon reads = %d, want ~300", reads)
	}
	if decisions == 0 {
		t.Fatal("daemon made no scaling decisions")
	}
}

func TestDaemonScalesBackUpWhenAlone(t *testing.T) {
	// Same VM but the competitor goes idle after 1s: the daemon should
	// unfreeze back towards 4 (extendability grows with the slack).
	eng := sim.NewEngine(3)
	pool := xen.NewPool(eng, xen.DefaultConfig(4))
	pool.EnableVScale()

	domA := pool.AddDomain("vm", 256, 4, nil)
	kA := NewKernel(domA, DefaultConfig())
	kA.StartVScaleDaemon()
	for i := 0; i < 4; i++ {
		kA.Spawn("w", Uthread, &loop{n: 1 << 30, body: func(int) []Action {
			return []Action{Compute(sim.Millisecond)}
		}}, nil)
	}

	domB := pool.AddDomain("bg", 768, 4, nil)
	kB := NewKernel(domB, DefaultConfig())
	for i := 0; i < 4; i++ {
		kB.Spawn("w", Uthread, &seq{actions: []Action{Compute(sim.Second)}}, nil)
	}

	pool.Start()
	kA.Boot()
	kB.Boot()
	if err := eng.RunUntil(1500 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	midActive := kA.ActiveVCPUs()
	if err := eng.RunUntil(4 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := kA.ActiveVCPUs(); got != 4 {
		t.Fatalf("active = %d after competitor went idle (was %d mid-run), want 4", got, midActive)
	}
}

// TestStartVScaleDaemonOneSwitch: StartVScaleDaemon is the guest's only
// daemon switch. Called before Boot it polls nothing, so the first poll
// comes one period after Boot; on a booted kernel the first poll comes
// one period after the call, and a second call adds no second daemon.
func TestStartVScaleDaemonOneSwitch(t *testing.T) {
	period := DefaultConfig().VScale.Period
	pollsAt := func(t *testing.T, e *testEnv, at sim.Time, want uint64) {
		t.Helper()
		if err := e.eng.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		if reads, _ := e.k.DaemonStats(); reads != want {
			t.Fatalf("at %v: %d polls, want %d", at, reads, want)
		}
	}
	t.Run("before Boot", func(t *testing.T) {
		e := newEnv(t, 2, 4, nil, false)
		e.pool.EnableVScale()
		e.pool.Start()
		e.k.StartVScaleDaemon()
		boot := 3*period + 4*sim.Millisecond
		pollsAt(t, e, boot, 0)
		e.k.Boot()
		pollsAt(t, e, boot+period-1, 0)
		pollsAt(t, e, boot+period, 1)
	})
	t.Run("after Boot", func(t *testing.T) {
		e := newEnv(t, 2, 4, nil, false)
		e.pool.EnableVScale()
		e.pool.Start()
		e.k.Boot()
		call := 3*period + 4*sim.Millisecond
		pollsAt(t, e, call, 0)
		e.k.StartVScaleDaemon()
		e.k.StartVScaleDaemon()
		pollsAt(t, e, call+period-1, 0)
		pollsAt(t, e, call+period, 1)
		pollsAt(t, e, call+5*period, 5)
	})
}

func TestPVSpinlockParksAndRecovers(t *testing.T) {
	// Force kernel-lock contention with pv-spinlocks enabled on an
	// oversubscribed pCPU; everything must still complete.
	e := newEnv(t, 1, 2, func(c *Config) {
		c.PVSpinlock = true
		c.PVSpinThreshold = 10 * sim.Microsecond
	}, false)
	m := e.k.NewMutex()
	done := 0
	for i := 0; i < 4; i++ {
		e.k.Spawn("locker", Uthread, &loop{n: 200, body: func(int) []Action {
			return []Action{
				Lock(m),
				Compute(50 * sim.Microsecond),
				Unlock(m),
			}
		}}, func(*Thread) { done++ })
	}
	e.run(t, 10*sim.Second)
	if done != 4 {
		t.Fatalf("done = %d of 4", done)
	}
}

func TestActiveVCPUTrace(t *testing.T) {
	e := newEnv(t, 2, 4, nil, false)
	e.k.StartTrace(10 * sim.Millisecond)
	e.spawn("w", Compute(100*sim.Millisecond))
	e.pool.Start()
	e.k.Boot()
	if err := e.eng.RunUntil(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := e.k.FreezeVCPU(3); err != nil {
		t.Fatal(err)
	}
	if err := e.eng.RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	tr := e.k.Trace()
	if len(tr) < 15 {
		t.Fatalf("trace points = %d", len(tr))
	}
	if tr[0].Active != 4 {
		t.Fatalf("first sample = %d", tr[0].Active)
	}
	last := tr[len(tr)-1]
	if last.Active != 3 {
		t.Fatalf("last sample = %d, want 3", last.Active)
	}
	if avg := e.k.AverageActiveVCPUs(); avg <= 3 || avg >= 4 {
		t.Fatalf("average active = %f", avg)
	}
}

func TestGuestDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64, uint64) {
		e := newEnv(t, 2, 4, nil, true)
		b := e.k.NewBarrier(4, SpinBudgetFromCount(300000))
		var last sim.Time
		done := 0
		for i := 0; i < 4; i++ {
			e.k.Spawn("omp", Uthread, &loop{n: 30, body: func(int) []Action {
				return []Action{Compute(2 * sim.Millisecond), BarrierWait(b)}
			}}, func(th *Thread) {
				done++
				if th.ExitAt > last {
					last = th.ExitAt
				}
			})
		}
		e.run(t, 5*sim.Second)
		if done != 4 {
			t.Fatal("not all finished")
		}
		var ipis uint64
		for i := 0; i < 4; i++ {
			ipis += e.k.CPUStatsOf(i).ReschedIPIs
		}
		return last, ipis, e.eng.Processed
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", a1, b1, c1, a2, b2, c2)
	}
}

func TestPerCPUKthreadsInventory(t *testing.T) {
	e := newEnv(t, 1, 2, nil, false)
	e.k.SpawnPerCPUKthreads()
	per := 0
	for _, th := range e.k.Threads() {
		if th.Kind == KthreadPerCPU {
			per++
			if th.Kind.Migratable() {
				t.Fatal("per-CPU kthread reported migratable")
			}
		}
	}
	if per != 6 {
		t.Fatalf("per-CPU kthreads = %d, want 3 per vCPU", per)
	}
}

func TestWaitingTimeVisibleUnderContention(t *testing.T) {
	// Sanity for Figure 9's metric: an oversubscribed VM accumulates
	// hypervisor waiting time; a dedicated one does not.
	mk := func(pcpus int) sim.Time {
		eng := sim.NewEngine(5)
		pool := xen.NewPool(eng, xen.DefaultConfig(pcpus))
		dom := pool.AddDomain("vm", 256, 2, nil)
		k := NewKernel(dom, DefaultConfig())
		for i := 0; i < 2; i++ {
			k.Spawn("w", Uthread, &loop{n: 1 << 30, body: func(int) []Action {
				return []Action{Compute(sim.Millisecond)}
			}}, nil)
		}
		dom2 := pool.AddDomain("bg", 256, 2, nil)
		k2 := NewKernel(dom2, DefaultConfig())
		for i := 0; i < 2; i++ {
			k2.Spawn("w", Uthread, &loop{n: 1 << 30, body: func(int) []Action {
				return []Action{Compute(sim.Millisecond)}
			}}, nil)
		}
		pool.Start()
		k.Boot()
		k2.Boot()
		if err := eng.RunUntil(2 * sim.Second); err != nil {
			t.Fatal(err)
		}
		return dom.TotalWaitTime
	}
	contended := mk(2)
	dedicated := mk(4)
	if contended < 100*sim.Millisecond {
		t.Fatalf("contended wait = %v, expected substantial", contended)
	}
	if dedicated > contended/10 {
		t.Fatalf("dedicated wait = %v vs contended %v", dedicated, contended)
	}
	if math.IsNaN(float64(contended)) {
		t.Fatal("impossible")
	}
}
