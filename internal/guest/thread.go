package guest

import (
	"fmt"

	"vscale/internal/sim"
)

// ThreadKind classifies schedulable entities (paper Figure 3).
type ThreadKind int

// Thread kinds.
const (
	// Uthread is a user-level thread; always migratable.
	Uthread ThreadKind = iota
	// KthreadSystem is a system-wide kernel thread (rcu_sched, kauditd,
	// ext4 daemons); migratable.
	KthreadSystem
	// KthreadPerCPU is a per-CPU kernel thread (ksoftirqd, kworker,
	// swapper); NOT migratable — vScale leaves them parked, and they go
	// quiescent once nothing drives them.
	KthreadPerCPU
)

func (kk ThreadKind) String() string {
	switch kk {
	case Uthread:
		return "uthread"
	case KthreadSystem:
		return "kthread-system"
	case KthreadPerCPU:
		return "kthread-percpu"
	default:
		return fmt.Sprintf("ThreadKind(%d)", int(kk))
	}
}

// Migratable reports whether load balancing and vScale may move the
// thread across vCPUs.
func (kk ThreadKind) Migratable() bool { return kk != KthreadPerCPU }

// ThreadState is the scheduler state of a guest thread.
type ThreadState int

// Thread states.
const (
	// ThreadRunnable: queued on some CPU's runqueue.
	ThreadRunnable ThreadState = iota
	// ThreadRunning: currently executing on a CPU.
	ThreadRunning
	// ThreadSleeping: blocked (futex, condvar, I/O, timed sleep).
	ThreadSleeping
	// ThreadExited: the program returned an Exit action.
	ThreadExited
)

func (s ThreadState) String() string {
	switch s {
	case ThreadRunnable:
		return "runnable"
	case ThreadRunning:
		return "running"
	case ThreadSleeping:
		return "sleeping"
	case ThreadExited:
		return "exited"
	default:
		return fmt.Sprintf("ThreadState(%d)", int(s))
	}
}

// segKind classifies what the current execution segment represents.
type segKind int

const (
	segWork segKind = iota
	segUserSpin
	segKernelSpin
)

// spinWait tracks an in-progress user-level spin; the zero value means
// the thread is not spinning.
type spinWait struct {
	active    bool
	targetGen uint64
	satisfied bool
}

// futexOp names the kernel critical section a thread runs under a futex
// bucket lock: the slow path of its pending barrier, mutex or condvar
// action.
type futexOp uint8

const (
	opNone         futexOp = iota
	opBarrierSleep         // re-check the generation, futex-wait
	opBarrierWake          // futex-wake every sleeper
	opMutexWait            // re-check the owner, futex-wait
	opMutexWake            // hand ownership to the first waiter, wake it
	opCondWait             // release the mutex, futex-wait on the condvar
	opCondWake             // futex-wake one or all condvar waiters
)

// kcont is a thread's stashed kernel continuation: it runs when the
// current segment completes. Before held, the thread waits for lock l
// (spinning, or granted while its vCPU was preempted) and the grant
// starts the hold; once held, the hold time has been charged and op
// runs under l, which is then released. The synchronisation object op
// acts on is the thread's pending action's.
type kcont struct {
	op   futexOp
	held bool
	c    *cpu
	l    *KernelLock
	// gen is the barrier generation seen on arrival (opBarrierSleep).
	gen uint64
}

// Thread is one schedulable guest entity.
type Thread struct {
	k    *Kernel
	id   int
	Name string
	Kind ThreadKind

	state ThreadState
	cpu   int // current/last CPU

	prog    Program
	pending Action
	phase   int

	segRemaining sim.Time
	segKind      segKind

	spin         spinWait
	kspinGranted bool
	// wakePreempt marks a freshly woken thread that may preempt the
	// running one (CFS wakeup preemption); cleared when picked.
	wakePreempt bool
	// kcont is a stashed kernel continuation: it runs when the current
	// segment completes (contended-lock grants and critical sections).
	kcont kcont

	// sleptOn is the CPU the thread went to sleep on in its last Sleep
	// action; timerWake (bound on the first Sleep) wakes it from there.
	sleptOn   int
	timerWake func()
	// ioDone completes the thread's in-flight I/O by raising its device
	// with ioWake; both are bound on the thread's first I/O.
	ioDone func()
	ioWake func(cpuID int)

	// Mailbox receives the item taken by a Dequeue action.
	Mailbox any

	// onExit runs when the thread exits (harness completion tracking).
	onExit func(*Thread)

	// Stats.
	CPUTime  sim.Time
	StartAt  sim.Time
	ExitAt   sim.Time
	Sleeps   uint64
	WakeUps  uint64
	Migrated uint64
}

// inKernelCritical reports that the thread is inside a kernel critical
// section (a pending lock continuation or a just-granted kernel lock).
// Such threads are neither rotated nor migrated — the kernel runs
// spinlock critical sections with preemption disabled, and the stashed
// continuations are bound to the executing CPU.
func (t *Thread) inKernelCritical() bool { return t.kcont.op != opNone || t.kspinGranted }

// ID returns the thread id.
func (t *Thread) ID() int { return t.id }

// State returns the scheduler state.
func (t *Thread) State() ThreadState { return t.state }

// CPU returns the thread's current (or last) CPU.
func (t *Thread) CPU() int { return t.cpu }

// Kernel returns the owning kernel.
func (t *Thread) Kernel() *Kernel { return t.k }

// Rand returns the kernel PRNG (for program jitter).
func (t *Thread) Rand() *sim.Rand { return t.k.rand }

// Spawn creates a thread running prog and enqueues it (fork balance). It
// may be called before Boot; threads start once vCPU0 is kicked.
func (k *Kernel) Spawn(name string, kind ThreadKind, prog Program, onExit func(*Thread)) *Thread {
	t := &Thread{
		k:       k,
		id:      k.nextTID,
		Name:    name,
		Kind:    kind,
		prog:    prog,
		onExit:  onExit,
		StartAt: k.eng.Now(),
		state:   ThreadRunnable,
	}
	k.nextTID++
	k.threads = append(k.threads, t)
	target := k.selectCPU(t, -1)
	t.cpu = target
	k.enqueue(k.cpus[target], t, true)
	return t
}

// SpawnPerCPUKthreads creates the classic per-CPU servants (quiescent
// placeholders: they never enter a runqueue but appear in the thread
// inventory and are refused migration).
func (k *Kernel) SpawnPerCPUKthreads() {
	for i := range k.cpus {
		for _, name := range []string{"ksoftirqd", "kworker", "swapper"} {
			t := &Thread{
				k:       k,
				id:      k.nextTID,
				Name:    fmt.Sprintf("%s/%d", name, i),
				Kind:    KthreadPerCPU,
				state:   ThreadSleeping,
				cpu:     i,
				StartAt: k.eng.Now(),
			}
			k.nextTID++
			k.threads = append(k.threads, t)
		}
	}
}

// Threads returns all threads ever spawned.
func (k *Kernel) Threads() []*Thread { return k.threads }

// advance executes the action state machine of thread t (current on c)
// after its segment completed.
func (k *Kernel) advance(c *cpu, t *Thread) {
	a := &t.pending
	switch a.kind {
	case actNone:
		k.fetch(c, t)
	case actCompute:
		t.CPUTime += a.d
		k.complete(c, t)
	case actExit:
		panic("guest: Exit should not reach advance")
	case actSleep:
		// Phase 0: go to sleep; the timer wake re-queues the thread, and
		// completion happens when it runs again (phase 1).
		if t.phase == 0 {
			t.phase = 1
			if t.timerWake == nil {
				t.timerWake = func() { k.wakeThread(t, t.sleptOn) }
			}
			t.sleptOn = c.id
			k.addTimer(c, k.eng.Now()+a.d, t.timerWake)
			k.sleepCurrent(c, t)
			return
		}
		k.complete(c, t)
	case actBarrierWait:
		k.barrierAdvance(c, t, a.obj.(*Barrier))
	case actLock:
		k.mutexLockAdvance(c, t, a.obj.(*Mutex))
	case actUnlock:
		k.mutexUnlockAdvance(c, t, a.obj.(*Mutex))
	case actCondWait:
		k.condWaitAdvance(c, t, a.obj.(*Cond), a.arg.(*Mutex))
	case actCondSignal:
		k.condSignalAdvance(c, t, a.obj.(*Cond), false)
	case actCondBroadcast:
		k.condSignalAdvance(c, t, a.obj.(*Cond), true)
	case actSpinWait:
		k.spinWaitAdvance(c, t, a.obj.(*SpinVar), uint64(a.d))
	case actSpinSet:
		k.spinSetAdvance(c, t, a.obj.(*SpinVar))
	case actIO:
		k.ioAdvance(c, t, a.d)
	case actDequeue:
		k.dequeueAdvance(c, t, a.obj.(*WaitQueue))
	case actEnqueue:
		k.enqueueAdvance(c, t, a.obj.(*WaitQueue), a.arg)
	case actCall:
		k.callAdvance(c, t, a.d, a.obj.(func(*Thread)))
	default:
		panic(fmt.Sprintf("guest: unknown action %v", a.kind))
	}
}

// fetch pulls the next action from the program and starts executing it.
func (k *Kernel) fetch(c *cpu, t *Thread) {
	t.pending = t.prog.Next(t)
	t.phase = 0
	a := &t.pending
	switch a.kind {
	case actNone:
		panic("guest: program " + t.Name + " returned the zero Action")
	case actCompute:
		if a.d < 0 {
			panic("guest: negative compute duration")
		}
		t.segRemaining = a.d
		t.segKind = segWork
		k.startSegment(c)
	case actExit:
		k.exitThread(c, t)
	default:
		// All synchronisation actions begin with a zero-length segment
		// so advance() runs them through their phase machines.
		t.segRemaining = 0
		t.segKind = segWork
		k.startSegment(c)
	}
}

// complete finishes the pending action and fetches the next one.
func (k *Kernel) complete(c *cpu, t *Thread) {
	t.pending = Action{}
	t.phase = 0
	k.fetch(c, t)
}

// exitThread retires t and invokes its completion callback.
func (k *Kernel) exitThread(c *cpu, t *Thread) {
	t.state = ThreadExited
	t.ExitAt = k.eng.Now()
	c.current = nil
	if t.onExit != nil {
		t.onExit(t)
	}
	k.pickNext(c)
}

// sleepCurrent blocks the current thread of c (it is off every queue)
// and schedules the next one.
func (k *Kernel) sleepCurrent(c *cpu, t *Thread) {
	if c.current != t {
		panic("guest: sleeping a non-current thread")
	}
	t.state = ThreadSleeping
	t.Sleeps++
	c.current = nil
	k.pickNext(c)
}

// resumeSegmentCost restarts t with an immediate extra cost, used when
// an action phase continues after a wakeup.
func resumeSegmentCost(t *Thread, cost sim.Time) {
	t.segRemaining = cost
	t.segKind = segWork
}

// chargeAndContinue sets up the next micro-segment of the pending action.
func (k *Kernel) chargeAndContinue(c *cpu, t *Thread, cost sim.Time) {
	resumeSegmentCost(t, cost)
	k.startSegment(c)
}
