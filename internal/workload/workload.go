// Package workload provides the application harness and generic program
// builders used to model the paper's workloads: an App groups the
// threads of one multithreaded application and records its execution
// time; RandLoop builds Programs from per-iteration op lists; KernelBuild and
// Slideshow model the calibration workload of Table 2 and the
// interactive background VMs of §5.2.1.
package workload

import (
	"vscale/internal/guest"
	"vscale/internal/sim"
)

// App tracks one multithreaded application running inside a guest.
type App struct {
	k    *guest.Kernel
	Name string

	started   sim.Time
	finished  sim.Time
	remaining int
	threads   []*guest.Thread

	// OnDone runs when the last thread exits.
	OnDone func(*App)
}

// NewApp creates an application harness on kernel k.
func NewApp(k *guest.Kernel, name string) *App {
	return &App{k: k, Name: name, started: k.Engine().Now()}
}

// Go spawns one application thread running prog.
func (a *App) Go(name string, prog guest.Program) *guest.Thread {
	a.remaining++
	t := a.k.Spawn(name, guest.Uthread, prog, func(*guest.Thread) {
		a.remaining--
		if a.remaining == 0 {
			a.finished = a.k.Engine().Now()
			if a.OnDone != nil {
				a.OnDone(a)
			}
		}
	})
	a.threads = append(a.threads, t)
	return t
}

// Threads returns the spawned application threads.
func (a *App) Threads() []*guest.Thread { return a.threads }

// Done reports whether every thread has exited.
func (a *App) Done() bool { return a.remaining == 0 && len(a.threads) > 0 }

// ExecTime returns the wall time from harness creation to the last
// thread's exit (0 if not finished).
func (a *App) ExecTime() sim.Time {
	if !a.Done() {
		return 0
	}
	return a.finished - a.started
}

// KernelBuild models a parallel kernel compile (the workload behind the
// paper's Table 2): compute bursts with shared mm_sem-style mutex
// traffic, short pipe waits, and make-jobserver token passing that
// wakes compiler threads across CPUs — producing the ~20 reschedule
// IPIs/vCPU/s the paper reports.
type KernelBuild struct {
	MMSem *guest.Mutex
	// The make jobserver pipe: finishing jobs put a token, and every
	// few compilation units a job takes one (blocking if none —
	// cross-CPU wakeups, like reading an empty pipe).
	pipe *guest.WaitQueue
	// Jobs is the number of compiler threads.
	Jobs int
}

// NewKernelBuild creates the shared state for one build.
func NewKernelBuild(k *guest.Kernel, jobs int) *KernelBuild {
	b := &KernelBuild{
		MMSem: k.NewMutex(),
		pipe:  k.NewWaitQueue(0),
		Jobs:  jobs,
	}
	// One spare token so a taker never waits on an empty pipe forever.
	b.pipe.Post(struct{}{}, 0)
	return b
}

// Start launches the build threads into app. Token takes and returns are
// staggered across jobs so a taker usually blocks briefly until another
// job's return wakes it — a cross-CPU wakeup, like reading make's
// jobserver pipe.
func (b *KernelBuild) Start(app *App) {
	for j := 0; j < b.Jobs; j++ {
		j := j
		app.Go("cc", &RandLoop{Forever: true, Body: func(i int, ops *Ops) {
			ops.RandCompute(3*sim.Millisecond, 5*sim.Millisecond)
			ops.Do(
				guest.Lock(b.MMSem),
				guest.Compute(30*sim.Microsecond),
				guest.Unlock(b.MMSem),
			)
			ops.RandCompute(3*sim.Millisecond, 5*sim.Millisecond)
			switch (i + j) % 8 {
			case 0:
				ops.Do(guest.Dequeue(b.pipe))
			case 4:
				ops.Do(guest.Enqueue(b.pipe, struct{}{}))
			default:
				ops.RandSleep(sim.Millisecond, 3*sim.Millisecond)
			}
		}})
	}
}

// Slideshow models the paper's background virtual desktops: a
// "photo-slideshow" that periodically opens a large JPEG — a burst of
// CPU on both vCPUs followed by think time. CPU consumption spikes and
// collapses, which is exactly the fluctuating availability vScale
// exploits. The decode threads work on the same picture, so their
// bursts are correlated: the VM's consumption flips between ~0 and its
// full vCPU count, the bimodal pattern of interactive desktops.
type Slideshow struct {
	// BurstMin/Max is the decode burst per picture.
	BurstMin, BurstMax sim.Time
	// IdleMin/Max is the think time between pictures.
	IdleMin, IdleMax sim.Time
}

// slideshowThreads is the number of decode threads (the paper's
// background VMs have 2 vCPUs).
const slideshowThreads = 2

// DefaultSlideshow returns the burst/idle profile used in the
// experiments: decode bursts of 600–1200 ms separated by 150–350 ms of
// think time, a heavy but bursty duty cycle of roughly 65–90% per
// thread, less the wait at each picture's join. With the 2:1
// consolidation of §5.2.1 this keeps total demand fluctuating around
// the pool capacity, which is the regime where baseline VMs suffer
// scheduling delays and vScale has slack to exploit.
func DefaultSlideshow() Slideshow {
	return Slideshow{
		BurstMin: 600 * sim.Millisecond,
		BurstMax: 1200 * sim.Millisecond,
		IdleMin:  150 * sim.Millisecond,
		IdleMax:  350 * sim.Millisecond,
	}
}

// slideshowSched is the shared per-VM picture schedule; whichever thread
// reaches an iteration first draws its timings, so both decode threads
// follow the same schedule.
type slideshowSched struct {
	idle, burst []sim.Time
}

func (sc *slideshowSched) entry(i int, s Slideshow, r *sim.Rand) (sim.Time, sim.Time) {
	for len(sc.idle) <= i {
		lo := s.IdleMin
		if len(sc.idle) == 0 {
			// Stagger the first picture so background VMs do not burst
			// in lockstep at boot.
			lo = 0
		}
		sc.idle = append(sc.idle, r.Duration(lo, s.IdleMax))
		sc.burst = append(sc.burst, r.Duration(s.BurstMin, s.BurstMax))
	}
	return sc.idle[i], sc.burst[i]
}

// Start launches the slideshow threads (they run forever) on app's
// kernel. Both threads follow one schedule and join on a barrier after
// each picture (the decode threads split one image).
func (s Slideshow) Start(app *App) {
	sched := &slideshowSched{}
	join := app.k.NewBarrier(slideshowThreads, 0)
	show := func(t *guest.Thread, picture int, acts []guest.Action) []guest.Action {
		idle, burst := sched.entry(picture, s, t.Rand())
		return append(acts,
			guest.Sleep(idle),
			guest.Compute(burst),
			guest.BarrierWait(join),
		)
	}
	body := func(_ int, ops *Ops) { ops.Dynamic(show) }
	for i := 0; i < slideshowThreads; i++ {
		app.Go("slideshow", &RandLoop{Forever: true, Body: body})
	}
}

// opKind says how RandLoop turns an op into a guest action.
type opKind uint8

const (
	opAction      opKind = iota // the action as is
	opRandCompute               // Compute of a duration drawn in [lo, hi)
	opRandSleep                 // Sleep of a duration drawn in [lo, hi)
	opDynamic                   // actions from dyn, returned in its place
)

// op is one element of a RandLoop iteration.
type op struct {
	kind   opKind
	act    guest.Action
	lo, hi sim.Time
	dyn    DynamicFunc
}

// DynamicFunc decides actions at execution time, in iteration iter of
// the loop running on t: it appends them to acts and returns the
// extended slice, whose actions RandLoop returns before the rest of
// the iteration. acts is a buffer the loop owns and reuses, so a
// DynamicFunc must not keep it.
type DynamicFunc func(t *guest.Thread, iter int, acts []guest.Action) []guest.Action

// Ops is the buffer a RandLoop hands its Body to append one iteration's
// ops to. The loop owns it and reuses it for every iteration, so a
// warmed loop whose Body appends no more ops than before allocates
// nothing.
type Ops struct{ ops []op }

// Do appends guest actions, run as they are.
func (o *Ops) Do(acts ...guest.Action) {
	for _, a := range acts {
		o.ops = append(o.ops, op{kind: opAction, act: a})
	}
}

// RandCompute appends a compute whose duration is drawn uniformly from
// [lo, hi) with the thread's PRNG when the op is fetched, so durations
// vary per iteration without breaking reproducibility.
func (o *Ops) RandCompute(lo, hi sim.Time) {
	o.ops = append(o.ops, op{kind: opRandCompute, lo: lo, hi: hi})
}

// RandSleep appends a sleep drawn like RandCompute.
func (o *Ops) RandSleep(lo, hi sim.Time) {
	o.ops = append(o.ops, op{kind: opRandSleep, lo: lo, hi: hi})
}

// Dynamic defers action generation to execution time: when the op is
// fetched, fn's actions are returned before the rest of the
// iteration. Used for data-dependent control flow (e.g. "broadcast if I
// am the last arriver", decided while actually holding the lock). A
// Body that passes the same fn every iteration allocates nothing for
// it.
func (o *Ops) Dynamic(fn DynamicFunc) {
	o.ops = append(o.ops, op{kind: opDynamic, dyn: fn})
}

// RandLoop repeats Body for N iterations, then exits; when Forever is
// set it never exits (background load). Body(iter, ops) appends
// iteration iter's ops to ops, a buffer the loop owns: the loop calls
// Body once the previous iteration's ops have all been fetched, and an
// iteration with no ops is skipped.
type RandLoop struct {
	N       int
	Forever bool
	Body    func(iter int, ops *Ops)

	iter int
	ops  Ops
	pos  int // next op to fetch
	// acts holds the actions of the last Dynamic op, reused; actPos is
	// the next one to return.
	acts   []guest.Action
	actPos int
}

// Next implements guest.Program.
func (l *RandLoop) Next(t *guest.Thread) guest.Action {
	for {
		if l.actPos < len(l.acts) {
			l.actPos++
			return l.acts[l.actPos-1]
		}
		for l.pos == len(l.ops.ops) {
			if !l.Forever && l.iter >= l.N {
				return guest.Exit()
			}
			l.ops.ops, l.pos = l.ops.ops[:0], 0
			l.Body(l.iter, &l.ops)
			l.iter++
		}
		o := &l.ops.ops[l.pos]
		l.pos++
		switch o.kind {
		case opRandCompute:
			return guest.Compute(t.Rand().Duration(o.lo, o.hi))
		case opRandSleep:
			return guest.Sleep(t.Rand().Duration(o.lo, o.hi))
		case opDynamic:
			l.acts, l.actPos = o.dyn(t, l.iter-1, l.acts[:0]), 0
			continue
		}
		return o.act
	}
}
