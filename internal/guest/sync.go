package guest

import (
	"vscale/internal/costmodel"
	"vscale/internal/sim"
)

func (k *Kernel) nextSyncID() uint64 {
	k.syncIDs++
	return k.syncIDs
}

// ---------------------------------------------------------------------
// OpenMP-style barrier: spin up to SpinBudget of CPU time on the
// generation counter, then futex-sleep. The last arriver flips the
// generation, releases spinners instantly (they see the store) and
// futex-wakes the sleepers, paying per-wake cost plus remote IPIs.
// ---------------------------------------------------------------------

// Barrier is a generation-counted barrier in the style of GOMP's
// bar.h: user-level spinning (GOMP_SPINCOUNT) with a futex fallback.
type Barrier struct {
	k  *Kernel
	id uint64
	// N is the number of participating threads.
	N int
	// SpinBudget is the CPU time a waiter spins before sleeping
	// (GOMP_SPINCOUNT × per-check cost). Zero means immediate futex
	// (OMP_WAIT_POLICY=PASSIVE); very large means always-spin (ACTIVE).
	SpinBudget sim.Time

	arrived  int
	gen      uint64
	spinners []*Thread

	// Waits counts completed barrier episodes.
	Waits uint64
}

// NewBarrier creates a barrier for n threads with the given spin budget.
func (k *Kernel) NewBarrier(n int, spinBudget sim.Time) *Barrier {
	if n <= 0 {
		panic("guest: barrier needs n >= 1")
	}
	return &Barrier{k: k, id: k.nextSyncID(), N: n, SpinBudget: spinBudget}
}

// SpinBudgetFromCount converts a GOMP_SPINCOUNT iteration count into a
// CPU-time budget.
func SpinBudgetFromCount(count uint64) sim.Time {
	b := sim.Time(count) * costmodel.SpinCheck
	const max = sim.Time(1) << 50
	if b > max || b < 0 {
		return max
	}
	return b
}

// barrierAdvance is the BarrierWait phase machine.
//
// Phases: 0 arrive → (last: release; else spin or sleep)
//
//	1 spin ended  → either satisfied (done) or enter futex sleep
//	2 woken from futex sleep → done
//	3 release work (last arriver) charged → done
func (k *Kernel) barrierAdvance(c *cpu, t *Thread, b *Barrier) {
	switch t.phase {
	case 0:
		if b.arrived++; b.arrived == b.N {
			k.barrierRelease(c, t, b)
			return
		}
		if b.SpinBudget > 0 {
			t.phase = 1
			t.spin = spinWait{active: true, targetGen: b.gen + 1}
			b.spinners = append(b.spinners, t)
			t.segKind = segUserSpin
			t.segRemaining = b.SpinBudget
			k.startSegment(c)
			return
		}
		k.barrierSleep(c, t, b)
	case 1:
		if t.spin.active && t.spin.satisfied {
			t.spin = spinWait{}
			k.complete(c, t)
			return
		}
		// Spin budget exhausted: deregister and take the futex path.
		k.dropSpinner(b, t)
		t.spin = spinWait{}
		k.barrierSleep(c, t, b)
	case 2:
		// Woken by the releasing thread.
		k.complete(c, t)
	case 3:
		k.complete(c, t)
	default:
		panic("guest: bad barrier phase")
	}
}

// barrierSleep puts t to sleep on the barrier futex: bucket lock, hold,
// re-check the generation (futex value check — a release racing with
// the slow path must not be lost), enqueue. Phase 2 resumes after wake.
func (k *Kernel) barrierSleep(c *cpu, t *Thread, b *Barrier) {
	t.phase = 2
	k.futexSlowPath(c, t, opBarrierSleep, b.id, b.gen)
}

// futexSlowPath runs op under the futex bucket lock of the object with
// the given id: it stashes the continuation, then either starts the
// hold at once or lets the CPU spin until the lock is granted.
func (k *Kernel) futexSlowPath(c *cpu, t *Thread, op futexOp, id, gen uint64) {
	l := k.bucketFor(id)
	t.kcont = kcont{op: op, c: c, l: l, gen: gen}
	if k.acquireKernelLock(c, l) {
		k.chargeFutexHold(t)
	}
}

// chargeFutexHold charges the kernel-lock hold time on the thread's
// stashed continuation; when it has run, the continuation's op runs
// while holding the lock (it may sleep the thread; release still
// happens).
//
// To keep the discrete model simple the hold time is charged as an
// immediate interrupt-style stretch before the op, and the release
// happens synchronously. A holder preempted during the hold keeps the
// lock until its vCPU runs again — which is exactly the LHP window.
func (k *Kernel) chargeFutexHold(t *Thread) {
	t.kcont.held = true
	t.segKind = segWork
	t.segRemaining = k.cfg.KernelLockHold
	k.startSegment(t.kcont.c)
}

// runFutexOp is the critical section of a held continuation: the body
// of t's futex slow path, run under the bucket lock.
func (k *Kernel) runFutexOp(t *Thread, kc kcont) {
	c, a := kc.c, &t.pending
	switch kc.op {
	case opBarrierSleep:
		if a.obj.(*Barrier).gen != kc.gen {
			return // released while entering the kernel; phase 2 completes
		}
		k.chargeSyscall(t)
		k.futexEnqueue(c, t, a.obj.(*Barrier).id)
	case opBarrierWake:
		n := k.futexWakeAll(c, a.obj.(*Barrier).id, -1)
		// Wake cost lands after the critical section.
		resumeSegmentCost(t, wakeCost(n))
	case opMutexWait:
		m := a.obj.(*Mutex)
		if m.owner == nil {
			// The owner released while we entered the kernel.
			m.owner = t
			m.Acquisitions++
			return // phase 1 completes without sleeping
		}
		k.chargeSyscall(t)
		k.futexEnqueue(c, t, m.id)
	case opMutexWake:
		m := a.obj.(*Mutex)
		if q := k.futexQ(m.id); len(q.waiters) > 0 {
			m.owner = q.waiters[0]
			m.Acquisitions++
		} else {
			m.owner = nil
		}
		n := k.futexWakeAll(c, m.id, 1)
		resumeSegmentCost(t, wakeCost(n))
	case opCondWait:
		// Release the mutex, waking one mutex waiter if present, then
		// sleep on the condvar. The waker cost is folded into the hold.
		m := a.arg.(*Mutex)
		m.owner = nil
		if k.futexWaiterCount(m.id) > 0 {
			if q := k.futexQ(m.id); len(q.waiters) > 0 {
				m.owner = q.waiters[0]
				m.Acquisitions++
			}
			k.futexWakeAll(c, m.id, 1)
		}
		k.chargeSyscall(t)
		k.futexEnqueue(c, t, a.obj.(*Cond).id)
	case opCondWake:
		n := 1
		if a.kind == actCondBroadcast {
			n = -1
		}
		woken := k.futexWakeAll(c, a.obj.(*Cond).id, n)
		resumeSegmentCost(t, wakeCost(woken))
	default:
		panic("guest: bad futex op")
	}
}

// barrierRelease: the last arriver flips the generation, releases all
// spinners, and futex-wakes all sleepers, paying the wake cost.
func (k *Kernel) barrierRelease(c *cpu, t *Thread, b *Barrier) {
	b.arrived = 0
	b.gen++
	b.Waits++
	// Release user-level spinners: they observe the store directly.
	for _, s := range b.spinners {
		k.satisfySpinner(s)
	}
	b.spinners = b.spinners[:0]

	sleepers := k.futexWaiterCount(b.id)
	t.phase = 3
	if sleepers == 0 {
		k.chargeAndContinue(c, t, 100*sim.Nanosecond)
		return
	}
	// Futex wake path: bucket lock + per-wake cost.
	k.futexSlowPath(c, t, opBarrierWake, b.id, 0)
}

// satisfySpinner marks a user-level spinner's condition as met; if it is
// executing right now its spin segment is truncated to one more check.
func (k *Kernel) satisfySpinner(t *Thread) {
	if !t.spin.active {
		return
	}
	t.spin.satisfied = true
	c := k.cpus[t.cpu]
	if c.current == t && c.running && c.seg.Armed() {
		k.pauseSegment(c)
		t.segRemaining = costmodel.SpinCheck
		k.startSegment(c)
	}
	// Otherwise maybeShortcutSpin() collapses the rest of the budget
	// when the thread next gets CPU.
}

// dropSpinner removes t from the barrier's spinner list.
func (k *Kernel) dropSpinner(b *Barrier, t *Thread) {
	for i, s := range b.spinners {
		if s == t {
			b.spinners = append(b.spinners[:i], b.spinners[i+1:]...)
			return
		}
	}
}

// ---------------------------------------------------------------------
// Futex-based mutex (pthread_mutex): user-space fast path, kernel slow
// path under the bucket lock.
// ---------------------------------------------------------------------

// Mutex is a sleeping lock in the style of a glibc pthread mutex.
type Mutex struct {
	k     *Kernel
	id    uint64
	owner *Thread

	// Stats.
	Acquisitions uint64
	Contended    uint64
}

// NewMutex creates an unlocked mutex.
func (k *Kernel) NewMutex() *Mutex {
	return &Mutex{k: k, id: k.nextSyncID()}
}

// Locked reports whether the mutex is held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// mutexLockAdvance: phase 0 = fast path attempt; phase 1 = woken after
// sleeping, acquire now (the unlocker passed ownership).
func (k *Kernel) mutexLockAdvance(c *cpu, t *Thread, m *Mutex) {
	switch t.phase {
	case 0:
		if m.owner == nil {
			m.owner = t
			m.Acquisitions++
			k.complete(c, t)
			return
		}
		// Contended: futex_wait under the bucket lock. Like the real
		// futex, the sleep re-checks the lock word under the bucket lock
		// so an unlock racing with the slow path is not lost.
		m.Contended++
		t.phase = 1
		k.futexSlowPath(c, t, opMutexWait, m.id, 0)
	case 1:
		// Ownership was transferred by the unlocker before waking us.
		k.complete(c, t)
	default:
		panic("guest: bad mutex phase")
	}
}

// mutexUnlockAdvance: phase 0 = release; if waiters exist, transfer
// ownership to the first and wake it (futex path). Phase 1 = wake work
// charged, done.
func (k *Kernel) mutexUnlockAdvance(c *cpu, t *Thread, m *Mutex) {
	switch t.phase {
	case 0:
		if m.owner != t {
			panic("guest: unlocking a mutex not owned by thread " + t.Name)
		}
		if k.futexWaiterCount(m.id) == 0 {
			m.owner = nil
			k.complete(c, t)
			return
		}
		// Keep ownership until the transfer happens under the bucket
		// lock, so a racing fast-path lock cannot sneak in and be
		// clobbered by the transfer.
		t.phase = 1
		k.futexSlowPath(c, t, opMutexWake, m.id, 0)
	case 1:
		k.complete(c, t)
	default:
		panic("guest: bad mutex unlock phase")
	}
}

// ---------------------------------------------------------------------
// Condition variable (pthread_cond) over futex.
// ---------------------------------------------------------------------

// Cond is a condition variable; waiters sleep on its futex and re-take
// the associated mutex on wakeup.
type Cond struct {
	k  *Kernel
	id uint64

	Signals, Broadcasts uint64
}

// NewCond creates a condition variable.
func (k *Kernel) NewCond() *Cond {
	return &Cond{k: k, id: k.nextSyncID()}
}

// condWaitAdvance: phase 0 = unlock mutex and sleep on the cond futex;
// phase 1 = woken, reacquire the mutex (delegates to the mutex lock
// machine by rewriting the pending action).
func (k *Kernel) condWaitAdvance(c *cpu, t *Thread, cv *Cond, m *Mutex) {
	switch t.phase {
	case 0:
		if m.owner != t {
			panic("guest: cond wait without holding the mutex")
		}
		// Release the mutex, waking one mutex waiter if present, then
		// sleep on the condvar — all under the condvar bucket lock.
		t.phase = 1
		k.futexSlowPath(c, t, opCondWait, cv.id, 0)
	case 1:
		// Reacquire the mutex: morph into a lock action (phase 0).
		t.pending = Lock(m)
		t.phase = 0
		k.advance(c, t)
	default:
		panic("guest: bad cond phase")
	}
}

// condSignalAdvance wakes one (or all) waiters of the condvar.
// Phase 0 = wake under the bucket lock; phase 1 = done.
func (k *Kernel) condSignalAdvance(c *cpu, t *Thread, cv *Cond, broadcast bool) {
	switch t.phase {
	case 0:
		if broadcast {
			cv.Broadcasts++
		} else {
			cv.Signals++
		}
		if k.futexWaiterCount(cv.id) == 0 {
			k.complete(c, t)
			return
		}
		t.phase = 1
		k.futexSlowPath(c, t, opCondWake, cv.id, 0)
	case 1:
		k.complete(c, t)
	default:
		panic("guest: bad cond signal phase")
	}
}

// ---------------------------------------------------------------------
// SpinVar: ad-hoc user-level busy-wait synchronisation (NPB lu's
// hand-rolled pipeline sync; no futex fallback at all).
// ---------------------------------------------------------------------

// SpinVar is a monotonically increasing generation variable with pure
// busy-wait semantics.
type SpinVar struct {
	k        *Kernel
	id       uint64
	gen      uint64
	spinners []*Thread
}

// NewSpinVar creates a generation-zero spin variable.
func (k *Kernel) NewSpinVar() *SpinVar {
	return &SpinVar{k: k, id: k.nextSyncID()}
}

// Gen returns the current generation.
func (s *SpinVar) Gen() uint64 { return s.gen }

// spinWaitAdvance: phase 0 = begin spinning (or pass immediately);
// phase 1 = spin segment ended, which only happens via satisfaction
// because the budget is unbounded.
func (k *Kernel) spinWaitAdvance(c *cpu, t *Thread, s *SpinVar, gen uint64) {
	switch t.phase {
	case 0:
		if s.gen >= gen {
			k.chargeAndContinue(c, t, costmodel.SpinCheck)
			t.phase = 2
			return
		}
		t.phase = 1
		t.spin = spinWait{active: true, targetGen: gen}
		s.spinners = append(s.spinners, t)
		t.segKind = segUserSpin
		t.segRemaining = sim.Time(1) << 50
		k.startSegment(c)
	case 1:
		if !t.spin.active || t.spin.satisfied {
			t.spin = spinWait{}
			k.complete(c, t)
			return
		}
		// Unsatisfied unbounded spin "expired" — keep spinning.
		t.segKind = segUserSpin
		t.segRemaining = sim.Time(1) << 50
		k.startSegment(c)
	case 2:
		k.complete(c, t)
	default:
		panic("guest: bad spinwait phase")
	}
}

// spinSetAdvance advances the generation and releases satisfied
// spinners. Phase 0 = store + release; phase 1 = done.
func (k *Kernel) spinSetAdvance(c *cpu, t *Thread, s *SpinVar) {
	switch t.phase {
	case 0:
		s.gen++
		kept := s.spinners[:0]
		for _, sp := range s.spinners {
			if sp.spin.active && s.gen >= sp.spin.targetGen {
				k.satisfySpinner(sp)
			} else {
				kept = append(kept, sp)
			}
		}
		s.spinners = kept
		t.phase = 1
		k.chargeAndContinue(c, t, 50*sim.Nanosecond)
	case 1:
		k.complete(c, t)
	default:
		panic("guest: bad spinset phase")
	}
}

// chargeSyscall charges the futex syscall entry cost by extending the
// thread's next segment.
func (k *Kernel) chargeSyscall(t *Thread) {
	t.segRemaining += costmodel.FutexWaitCost
}
