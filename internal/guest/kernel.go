// Package guest models the Linux 3.14 SMP guest of the vScale paper:
// per-vCPU runqueues with push/pull load balancing, user threads and
// kernel threads, timer ticks with dynamic-tick idle, reschedule IPIs,
// futexes guarded by kernel ticket spinlocks (optionally paravirtual),
// OpenMP-style barriers with configurable spin counts, and the vScale
// guest components: the cpu_freeze_mask balancer (Algorithm 2) and the
// user-space daemon that polls the vScale channel and resizes the VM.
//
// A Kernel implements xen.GuestOS and drives workload Programs (state
// machines of compute/synchronisation/I/O actions) on top of the
// hypervisor's vCPU scheduling.
package guest

import (
	"fmt"
	"slices"

	"vscale/internal/costmodel"
	"vscale/internal/sim"
	"vscale/internal/trace"
	"vscale/internal/xen"
)

// Linux-like scheduler constants used in every experiment.
const (
	// timerTick is the timer interrupt period (1000 Hz Linux default:
	// 1 ms).
	timerTick = sim.Millisecond
	// tickCost is the CPU charged per timer interrupt.
	tickCost = 2 * sim.Microsecond
	// timeslice is the round-robin slice between runnable threads on one
	// CPU (stands in for CFS's sched_latency share).
	timeslice = 6 * sim.Millisecond
	// balanceTicks is the periodic load-balance cadence, in ticks.
	balanceTicks = 20
	// downHysteresis is how many consecutive lower readings the vScale
	// daemon needs before freezing vCPUs (see core.Governor).
	downHysteresis = 3
)

// Config parameterises a guest kernel.
type Config struct {
	// PVSpinlock enables paravirtual ticket spinlocks: kernel lock
	// waiters spin up to PVSpinThreshold of CPU time, then block the
	// vCPU until kicked by the releasing CPU.
	PVSpinlock      bool
	PVSpinThreshold sim.Time

	// KernelLockHold is the critical-section length of kernel bucket
	// locks taken around futex operations.
	KernelLockHold sim.Time

	// VScale enables the guest-side vScale components (daemon+balancer).
	VScale VScaleConfig

	// Seed drives the kernel's private PRNG (migration costs, jitter).
	Seed uint64
}

// VScaleConfig controls the guest vScale daemon, which
// Kernel.StartVScaleDaemon starts.
type VScaleConfig struct {
	// Period is how often the daemon polls the vScale channel (paper
	// default: 10 ms, matching the hypervisor recalculation period).
	Period sim.Time
	// CeilMargin is subtracted from the extendability (in pCPUs) before
	// the ceiling when sizing the VM (see core.OptimalWithMargin). Zero
	// is Algorithm 1's pure ceiling (ablation A5).
	CeilMargin float64

	// WeightOnly sizes the VM from its weight-based fair share alone,
	// ignoring consumption — the VCPU-Bal policy the paper criticises
	// for not being work-conserving (ablation A1).
	WeightOnly bool
}

// DefaultConfig returns the Linux-like defaults used in the experiments.
func DefaultConfig() Config {
	return Config{
		PVSpinThreshold: 30 * sim.Microsecond,
		KernelLockHold:  4 * sim.Microsecond,
		VScale: VScaleConfig{
			Period:     10 * sim.Millisecond,
			CeilMargin: 0.55,
		},
		Seed: 1,
	}
}

// CPUStats aggregates per-vCPU guest counters.
type CPUStats struct {
	TimerInterrupts uint64
	ReschedIPIs     uint64
	DeviceIRQs      uint64
	ContextSwitches uint64
	ThreadMigrates  uint64
	UserSpinTime    sim.Time
	KernelSpinTime  sim.Time
}

// cpu is the guest view of one vCPU.
type cpu struct {
	k  *Kernel
	id int

	vcpu *xen.VCPU

	rq      []*Thread // runnable threads, current excluded
	current *Thread

	running bool // vCPU currently holds a pCPU

	// Segment execution state for the current thread: seg is the
	// segment's deadline, armed exactly while a segment executes.
	seg      *sim.Timer
	segStart sim.Time

	tick      *sim.Timer
	tickCount int

	// timers is the per-CPU software timer list (earliest first),
	// backed by the vCPU's one-shot hardware timer.
	timers []timerEntry

	// timesliceLeft is the current thread's remaining round-robin slice.
	timesliceLeft sim.Time
	// pickedAt is when the current thread was last picked (wakeup
	// preemption granularity).
	pickedAt sim.Time

	// kspin, when non-nil, means this CPU is busy-waiting on a kernel
	// lock (no thread rotation happens in that state).
	kspin *KernelLock
	// pvParked means the vCPU blocked itself after exhausting the
	// pv-spinlock spin threshold and waits for a kick.
	pvParked bool
	// kspinStart is when the current kernel-spin segment began
	// (for the pv threshold and spin-time accounting).
	kspinSpun sim.Time

	// idle is the zero-delay event that blocks an idle vCPU (goIdle);
	// resched is the deferred wakeup-preemption check (maybePreempt),
	// armed exactly while a need_resched is pending.
	idle    *sim.Timer
	resched *sim.Timer

	// softirqs are this CPU's deferred side effects still queued, in
	// the order they were raised; runSoftirq, bound once in NewKernel,
	// performs the oldest.
	softirqs   []softirq
	runSoftirq func()

	// locksHeld counts kernel locks currently held by this CPU; being
	// descheduled with locksHeld > 0 is a lock-holder preemption.
	locksHeld int
	// lhpSince/lhpActive track an in-flight LHP incident for tracing.
	lhpSince  sim.Time
	lhpActive bool

	stats CPUStats
}

type timerEntry struct {
	at sim.Time
	fn func()
}

// MaxVCPUs is the largest VM the guest kernel models: its freeze mask
// holds one bit per vCPU in a uint64.
const MaxVCPUs = 64

// Kernel is the guest OS of one domain.
type Kernel struct {
	eng  *sim.Engine
	dom  *xen.Domain
	pool *xen.Pool
	cfg  Config
	rand *sim.Rand

	cpus []*cpu

	// freezeMask is vScale's cpu_freeze_mask: bit i set means vCPU i is
	// frozen and must be avoided by all balancing paths.
	freezeMask uint64

	futexes map[uint64]*futexQueue
	buckets [futexBuckets]KernelLock

	threads   []*Thread
	nextTID   int
	booted    bool
	daemon    *daemon
	devices   []*Device
	activeTW  metricTW
	trace     []TracePoint
	traceEV   *sim.Timer
	onIdleAll func() // test hook: all CPUs idle

	// reconfigDelay, when non-nil, routes the daemon's resizes through
	// the dom0 CPU-hotplug path (SetReconfigDelay).
	reconfigDelay func(r *sim.Rand) sim.Time

	// syncIDs hands out unique ids for synchronisation objects.
	syncIDs uint64

	// Stats.
	FreezeOps, UnfreezeOps uint64
	FutexWaits, FutexWakes uint64
}

// metricTW is a tiny local alias to avoid importing metrics here for one
// field; it tracks the time-weighted active-vCPU count.
type metricTW struct {
	last    sim.Time
	value   float64
	weight  float64
	started bool
	start   sim.Time
}

func (tw *metricTW) set(now sim.Time, v float64) {
	if !tw.started {
		tw.started, tw.start = true, now
	} else {
		tw.weight += tw.value * float64(now-tw.last)
	}
	tw.last, tw.value = now, v
}

func (tw *metricTW) average(now sim.Time) float64 {
	if !tw.started || now <= tw.start {
		return tw.value
	}
	return (tw.weight + tw.value*float64(now-tw.last)) / float64(now-tw.start)
}

// TracePoint is one sample of the active-vCPU trace (paper Figure 8).
type TracePoint struct {
	At     sim.Time
	Active int
}

// NewKernel builds a guest kernel for dom and attaches it as the
// domain's guest OS. The vScale daemon is off until StartVScaleDaemon.
func NewKernel(dom *xen.Domain, cfg Config) *Kernel {
	k := &Kernel{
		eng:     dom.Pool().Engine(),
		dom:     dom,
		pool:    dom.Pool(),
		cfg:     cfg,
		rand:    sim.NewRand(cfg.Seed ^ uint64(dom.ID())<<32),
		futexes: make(map[uint64]*futexQueue),
	}
	for i := range k.buckets {
		k.buckets[i] = KernelLock{k: k, Name: bucketNames[i]}
	}
	for i := 0; i < dom.VCPUCount(); i++ {
		c := &cpu{k: k, id: i, vcpu: dom.VCPU(i), timesliceLeft: timeslice}
		cc := c
		c.tick = sim.NewTimer(k.eng, fmt.Sprintf("guest/%s/tick%d", dom.Name, i), func() { k.tickFire(cc) })
		c.seg = sim.NewTimer(k.eng, "guest/seg", func() { k.segmentDone(cc) })
		c.idle = sim.NewTimer(k.eng, "guest/idle-block", func() { k.idleBlock(cc) })
		c.resched = sim.NewTimer(k.eng, "guest/need-resched", func() { k.preemptNow(cc) })
		c.runSoftirq = func() { k.doSoftirq(cc) }
		k.cpus = append(k.cpus, c)
	}
	dom.AttachGuest(k)
	k.activeTW.set(k.eng.Now(), float64(dom.VCPUCount()))
	return k
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// tracer returns the pool's event tracer (nil when tracing is off; all
// trace.Tracer methods are nil-safe).
func (k *Kernel) tracer() *trace.Tracer { return k.pool.Tracer() }

// Domain returns the hosting domain.
func (k *Kernel) Domain() *xen.Domain { return k.dom }

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// NCPUs returns the configured vCPU count.
func (k *Kernel) NCPUs() int { return len(k.cpus) }

// Frozen reports whether vCPU id is frozen.
func (k *Kernel) Frozen(id int) bool { return k.freezeMask&(1<<uint(id)) != 0 }

// ActiveVCPUs returns the number of unfrozen vCPUs.
func (k *Kernel) ActiveVCPUs() int {
	n := 0
	for i := range k.cpus {
		if !k.Frozen(i) {
			n++
		}
	}
	return n
}

// CPUStatsOf returns a copy of the guest counters of vCPU id.
func (k *Kernel) CPUStatsOf(id int) CPUStats { return k.cpus[id].stats }

// AverageActiveVCPUs returns the time-weighted mean active-vCPU count.
func (k *Kernel) AverageActiveVCPUs() float64 { return k.activeTW.average(k.eng.Now()) }

// ActiveVCPUSeconds returns the integral of the active (unfrozen)
// vCPU count over the kernel's lifetime so far, in seconds — the
// provisioned-capacity cost the VM has accrued.
func (k *Kernel) ActiveVCPUSeconds() float64 {
	tw := k.activeTW
	now := k.eng.Now()
	return (tw.weight + tw.value*float64(now-tw.last)) / float64(sim.Second)
}

// Trace returns the recorded active-vCPU trace (enable with StartTrace).
func (k *Kernel) Trace() []TracePoint { return k.trace }

// StartTrace samples the active-vCPU count every interval.
func (k *Kernel) StartTrace(interval sim.Time) {
	if interval <= 0 {
		panic("guest: trace interval must be positive")
	}
	k.traceEV = sim.NewTimer(k.eng, "guest/trace", func() {
		k.trace = append(k.trace, TracePoint{At: k.eng.Now(), Active: k.ActiveVCPUs()})
		k.traceEV.Reset(interval)
	})
	k.traceEV.Reset(interval)
}

// Boot starts the guest: it kicks vCPU0 so spawned threads begin to run.
// Spawn may be called before or after Boot.
func (k *Kernel) Boot() {
	if k.booted {
		return
	}
	k.booted = true
	if k.daemon != nil {
		k.daemon.start()
	}
	k.dom.KickVCPU(0)
}

// ---------------------------------------------------------------------
// xen.GuestOS implementation
// ---------------------------------------------------------------------

// Dispatched implements xen.GuestOS: the vCPU starts running.
func (k *Kernel) Dispatched(id int) {
	c := k.cpus[id]
	c.running = true
	if c.lhpActive {
		// The vCPU was preempted while holding a kernel lock and only
		// now gets the pCPU back: close the lock-holder-preemption span.
		c.lhpActive = false
		k.tracer().LHP(k.eng.Now(), k.dom.ID(), c.id, k.eng.Now()-c.lhpSince)
	}
	c.tick.Reset(timerTick)
	k.resume(c)
}

// Descheduled implements xen.GuestOS: the vCPU lost its pCPU.
func (k *Kernel) Descheduled(id int) {
	c := k.cpus[id]
	if !c.running {
		return
	}
	c.running = false
	if tr := k.tracer(); tr != nil && c.locksHeld > 0 {
		// Lock-holder preemption begins: waiters will spin until this
		// vCPU runs again.
		c.lhpActive = true
		c.lhpSince = k.eng.Now()
	}
	c.tick.Stop()
	k.pauseSegment(c)
	c.idle.Stop()
}

// DeliverEvent implements xen.GuestOS: an event-channel upcall arrived
// while the vCPU is running.
func (k *Kernel) DeliverEvent(id int, port *xen.Port) {
	c := k.cpus[id]
	switch port.Kind {
	case xen.PortVIRQTimer:
		k.chargeInterrupt(c, tickCost)
		k.processTimers(c)
	case xen.PortIPI:
		c.stats.ReschedIPIs++
		k.chargeInterrupt(c, costmodel.IPIDeliver)
		// A reschedule IPI makes the CPU re-examine its runqueue: it may
		// have been idle, remote wakeups may have queued work, or a
		// woken thread may deserve to preempt the running one.
		k.resume(c)
		k.maybePreempt(c)
	case xen.PortIRQ:
		c.stats.DeviceIRQs++
		if dev := k.deviceForPort(port); dev != nil {
			k.chargeInterrupt(c, dev.HandlerCost)
			dev.deliver(c)
		}
	}
}

// ---------------------------------------------------------------------
// Segment execution: each runnable thread executes "segments" of CPU
// time (work, user spinning or kernel lock spinning). Interrupt costs
// stretch the running segment; hypervisor preemption pauses it.
// ---------------------------------------------------------------------

// startSegment begins executing the current thread's remaining segment.
func (k *Kernel) startSegment(c *cpu) {
	t := c.current
	if t == nil || !c.running {
		return
	}
	if c.seg.Armed() {
		panic("guest: segment already armed")
	}
	c.segStart = k.eng.Now()
	c.seg.Reset(max(t.segRemaining, 0))
}

// pauseSegment stops the clock on the current segment, crediting elapsed
// execution to the thread.
func (k *Kernel) pauseSegment(c *cpu) {
	if !c.seg.Armed() {
		return
	}
	c.seg.Stop()
	k.creditSegment(c)
}

// creditSegment charges the time the running segment has executed so
// far to the current thread.
func (k *Kernel) creditSegment(c *cpu) {
	t := c.current
	elapsed := k.eng.Now() - c.segStart
	if t != nil {
		t.segRemaining -= elapsed
		if t.segRemaining < 0 {
			t.segRemaining = 0
		}
		k.accountSpin(c, t, elapsed)
	}
}

// accountSpin attributes elapsed segment time to spin-time counters.
func (k *Kernel) accountSpin(c *cpu, t *Thread, elapsed sim.Time) {
	switch t.segKind {
	case segUserSpin:
		c.stats.UserSpinTime += elapsed
	case segKernelSpin:
		c.stats.KernelSpinTime += elapsed
		c.kspinSpun += elapsed
	}
}

// chargeInterrupt charges interrupt-handler time to the CPU by
// stretching the in-flight segment (the interrupted thread resumes
// later). On an idle CPU it is free (the idle task absorbs it).
func (k *Kernel) chargeInterrupt(c *cpu, cost sim.Time) {
	if cost <= 0 || !c.running || !c.seg.Armed() {
		return
	}
	// Account elapsed so far, then restart the segment with the cost
	// prepended by moving its deadline in place. The engine books the
	// move as a cancel plus a fresh arming, as a stop and restart would.
	k.creditSegment(c)
	t := c.current
	t.segRemaining += cost
	c.segStart = k.eng.Now()
	c.seg.Reset(max(t.segRemaining, 0))
}

// segmentDone fires (c.seg) when the current thread finished its
// segment: run a stashed kernel continuation if one is pending,
// otherwise advance the action state machine (possibly blocking the
// thread or ending the program).
func (k *Kernel) segmentDone(c *cpu) {
	t := c.current
	if t == nil {
		panic("guest: segment completed with no current thread")
	}
	t.segRemaining = 0
	kind := t.segKind
	k.accountSpin(c, t, k.eng.Now()-c.segStart)
	t.segKind = segWork
	if t.kspinGranted {
		// A contended kernel-lock acquire finally succeeded.
		t.kspinGranted = false
		if tr := k.tracer(); tr != nil && c.kspinSpun > 0 {
			tr.SpinWait(k.eng.Now(), k.dom.ID(), c.id, c.kspinSpun, "kernel-lock")
		}
		k.runCont(c, t)
		return
	}
	switch kind {
	case segUserSpin:
		// Either the condition was satisfied (spin truncated) or the
		// budget expired; the action phase machines distinguish the two.
		k.advance(c, t)
	case segKernelSpin:
		k.kernelSpinExpired(c, t)
	default:
		k.runCont(c, t)
	}
}

// runCont executes the thread's stashed kernel continuation if present,
// otherwise advances the action state machine.
func (k *Kernel) runCont(c *cpu, t *Thread) {
	if t.kcont.op != opNone {
		kc := t.kcont
		t.kcont = kcont{}
		if kc.held {
			k.runFutexOp(t, kc)
			k.releaseKernelLock(kc.c, kc.l)
		} else {
			// The lock was granted: start the hold.
			t.kcont = kc
			k.chargeFutexHold(t)
		}
		// The continuation may have slept the thread or armed a new
		// segment. If the thread is still current with nothing armed,
		// arm whatever segment it set up (possibly zero-length).
		if c.current == t && c.running && !c.seg.Armed() && t.state == ThreadRunning {
			k.startSegment(c)
		}
		return
	}
	k.advance(c, t)
}

// resume ensures the CPU is executing something: drain if frozen,
// restart a paused segment, pick the next thread, pull work, or go idle.
func (k *Kernel) resume(c *cpu) {
	if !c.running {
		return
	}
	if c.pvParked {
		// Spurious wakeup while pv-parked on a kernel lock (a freeze
		// IPI, timer, or device event woke the vCPU): the lock has NOT
		// been granted, so after the event is handled the vCPU re-parks
		// — exactly the re-check-and-poll loop of paravirtual ticket
		// spinlocks.
		k.softirq("guest/pv-repark", c, softirqPVRepark, 0)
		return
	}
	if k.Frozen(c.id) && c.kspin == nil && !c.pvParked {
		// Frozen CPU: evacuate everything (Algorithm 2, target side).
		// Postponed while spinning on a kernel lock; the next dispatch
		// retries. The reschedule IPI lands here via DeliverEvent.
		k.pauseSegment(c)
		if k.drainFrozen(c) {
			return
		}
	}
	if c.seg.Armed() {
		return // already executing
	}
	if c.current != nil {
		k.maybeShortcutSpin(c.current)
		k.startSegment(c)
		return
	}
	k.pickNext(c)
}

// maybeShortcutSpin collapses a spin segment whose condition was
// satisfied while the thread was off-CPU: it completes after one more
// spin check instead of the full budget.
func (k *Kernel) maybeShortcutSpin(t *Thread) {
	if t.spin.active && t.spin.satisfied {
		t.segRemaining = costmodel.SpinCheck
	}
	if t.kspinGranted {
		t.segRemaining = 0
	}
}

// pickNext selects the next runnable thread on c, pulling from peers if
// the local queue is empty, and idling otherwise.
func (k *Kernel) pickNext(c *cpu) {
	if c.current == nil && len(c.rq) == 0 {
		k.idlePull(c)
	}
	if len(c.rq) == 0 {
		k.goIdle(c)
		return
	}
	t := c.rq[0]
	c.rq = slices.Delete(c.rq, 0, 1)
	c.current = t
	t.state = ThreadRunning
	t.wakePreempt = false
	c.timesliceLeft = k.idealSlice(c)
	c.pickedAt = k.eng.Now()
	c.stats.ContextSwitches++
	t.segRemaining += costmodel.ContextSwitch
	k.maybeShortcutSpin(t)
	k.startSegment(c)
}

// idealSlice is the CFS-style timeslice: the latency target divided by
// the number of runnable threads on this CPU, floored at one tick. With
// packed threads this keeps spin waste per barrier episode to a couple
// of milliseconds instead of a full fixed slice.
func (k *Kernel) idealSlice(c *cpu) sim.Time {
	n := c.load()
	if n < 1 {
		n = 1
	}
	s := timeslice / sim.Time(n)
	if s < timerTick {
		s = timerTick
	}
	return s
}

// maybePreempt implements CFS wakeup preemption: a freshly woken thread
// (which slept and therefore lags in virtual runtime) preempts the
// current thread once the latter has run at least the wakeup
// granularity (one tick). Without this, a woken thread waits out the
// current thread's slice — milliseconds per wakeup — which poisons
// sleep-based synchronisation whenever threads share a vCPU.
//
// Like the kernel's need_resched, the switch is deferred to a safe
// point (a zero-delay event) so a wake issued from the middle of the
// current thread's own action processing never context-switches the CPU
// under the caller's feet.
func (k *Kernel) maybePreempt(c *cpu) {
	if !c.resched.Armed() {
		c.resched.Reset(0)
	}
}

// preemptNow performs the deferred wakeup-preemption check (c.resched).
func (k *Kernel) preemptNow(c *cpu) {
	if !c.running || c.kspin != nil || c.pvParked {
		return
	}
	cur := c.current
	if cur == nil {
		k.resume(c)
		return
	}
	if cur.inKernelCritical() || cur.segKind == segKernelSpin {
		return
	}
	if !c.seg.Armed() {
		// Mid-transition (the current thread is between segments inside
		// kernel machinery); leave it alone.
		return
	}
	if k.eng.Now()-c.pickedAt < timerTick {
		return // wakeup granularity: don't thrash
	}
	// Find the first woken thread wanting to preempt and move it to the
	// queue head, shifting the threads ahead of it back by one in place.
	idx := -1
	for i, t := range c.rq {
		if t.wakePreempt {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	w := c.rq[idx]
	copy(c.rq[1:idx+1], c.rq[:idx])
	c.rq[0] = w
	k.pauseSegment(c)
	cur.state = ThreadRunnable
	c.rq = append(c.rq, cur)
	c.current = nil
	k.pickNext(c)
}

// rotate puts the current thread at the back of the runqueue (timeslice
// expiry). Never called while kernel-spinning.
func (k *Kernel) rotate(c *cpu) {
	if c.current == nil || len(c.rq) == 0 {
		c.timesliceLeft = k.idealSlice(c)
		return
	}
	k.pauseSegment(c)
	t := c.current
	t.state = ThreadRunnable
	c.rq = append(c.rq, t)
	c.current = nil
	k.pickNext(c)
}

// goIdle transitions the CPU to idle: with dynamic ticks the timer stops
// and the vCPU blocks in the hypervisor (deferred one event so nested
// scheduler callbacks unwind first).
func (k *Kernel) goIdle(c *cpu) {
	c.tick.Stop()
	k.armHWTimer(c)
	if !c.idle.Armed() {
		c.idle.Reset(0)
	}
}

// idleBlock is goIdle's deferred half (c.idle): block the vCPU in the
// hypervisor unless work arrived in the meantime.
func (k *Kernel) idleBlock(c *cpu) {
	if !c.running {
		return
	}
	if c.current != nil || len(c.rq) > 0 {
		// Work arrived in the meantime; run it instead of blocking.
		k.resume(c)
		return
	}
	if k.allIdle() && k.onIdleAll != nil {
		k.onIdleAll()
	}
	k.pool.Block(c.vcpu)
}

func (k *Kernel) allIdle() bool {
	for _, c := range k.cpus {
		if c.current != nil || len(c.rq) > 0 {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Timer ticks and software timers
// ---------------------------------------------------------------------

// tickFire is the 1000 Hz guest timer interrupt. It visits the software
// timers only when one is pending or the one-shot timer is armed; else
// processTimers would only stop a disarmed timer.
func (k *Kernel) tickFire(c *cpu) {
	if !c.running {
		return
	}
	c.stats.TimerInterrupts++
	c.tickCount++
	k.chargeInterrupt(c, tickCost)
	if len(c.timers) > 0 || c.vcpu.TimerArmed() {
		k.processTimers(c)
	}

	// Round-robin between runnable threads unless the CPU is inside a
	// kernel spinlock or critical section (non-preemptible context).
	if c.preemptible() {
		c.timesliceLeft -= timerTick
		if c.timesliceLeft <= 0 && len(c.rq) > 0 {
			k.rotate(c)
		}
	}

	// A frozen CPU whose drain was postponed (kernel critical section at
	// freeze time) retries here.
	if k.Frozen(c.id) && c.kspin == nil && !c.pvParked {
		k.resume(c)
	}

	if c.tickCount%balanceTicks == 0 {
		k.periodicBalance(c)
	}
	// Dynamic ticks: keep ticking only while there is work; goIdle may
	// have stopped the timer during this handler.
	if c.running && (c.current != nil || len(c.rq) > 0) {
		c.tick.Reset(timerTick)
	}
}

// preemptible reports whether a thread runs on c outside a kernel
// spinlock or critical section, so the tick may round-robin it.
func (c *cpu) preemptible() bool {
	return c.kspin == nil && c.current != nil && !c.current.inKernelCritical()
}

// addTimer registers a software timer on CPU c.
func (k *Kernel) addTimer(c *cpu, at sim.Time, fn func()) {
	i := 0
	for i < len(c.timers) && c.timers[i].at <= at {
		i++
	}
	c.timers = append(c.timers, timerEntry{})
	copy(c.timers[i+1:], c.timers[i:])
	c.timers[i] = timerEntry{at: at, fn: fn}
	k.armHWTimer(c)
}

// armHWTimer programs the vCPU one-shot timer to the earliest pending
// software timer (the dynamic-ticks wakeup path for idle vCPUs).
func (k *Kernel) armHWTimer(c *cpu) {
	if len(c.timers) == 0 {
		c.vcpu.StopTimer()
		return
	}
	at := c.timers[0].at
	if at < k.eng.Now() {
		at = k.eng.Now()
	}
	c.vcpu.SetTimer(at)
}

// processTimers runs expired software timers on c.
func (k *Kernel) processTimers(c *cpu) {
	now := k.eng.Now()
	for len(c.timers) > 0 && c.timers[0].at <= now {
		e := c.timers[0]
		c.timers = slices.Delete(c.timers, 0, 1)
		e.fn()
	}
	k.armHWTimer(c)
}

// deviceForPort maps an IRQ port back to its Device.
func (k *Kernel) deviceForPort(p *xen.Port) *Device {
	for _, d := range k.devices {
		if d.port == p {
			return d
		}
	}
	return nil
}

// softirqKind is a hypervisor-visible side effect on one CPU.
type softirqKind uint8

const (
	softirqKick     softirqKind = iota // kick the vCPU
	softirqIPI                         // send it a reschedule IPI
	softirqPVPark                      // block it: pv-spin threshold spent
	softirqPVRepark                    // re-block it after a spurious wakeup
)

// softirq is one queued side effect; from is an IPI's sending CPU.
type softirq struct {
	kind softirqKind
	from int
}

// softirq defers a hypervisor-visible side effect on c (IPI send, vCPU
// kick, pv-spinlock park) to a zero-delay event so that nested
// hypervisor scheduling never re-enters guest state mid-update. The
// label names the reason. Every softirq is a zero-delay event, so c's
// fire in the order they were raised, which is the order doSoftirq
// takes them off c.softirqs.
func (k *Kernel) softirq(label string, c *cpu, kind softirqKind, from int) {
	c.softirqs = append(c.softirqs, softirq{kind: kind, from: from})
	k.eng.After(0, label, c.runSoftirq)
}

// doSoftirq performs c's oldest queued side effect.
func (k *Kernel) doSoftirq(c *cpu) {
	s := c.softirqs[0]
	c.softirqs = slices.Delete(c.softirqs, 0, 1)
	switch s.kind {
	case softirqKick:
		k.dom.KickVCPU(c.id)
	case softirqIPI:
		k.dom.SendIPI(s.from, c.id)
	case softirqPVPark:
		if c.pvParked {
			k.pool.Block(c.vcpu)
		}
	case softirqPVRepark:
		if c.pvParked && c.running {
			k.pool.Block(c.vcpu)
		}
	}
}
