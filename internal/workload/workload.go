// Package workload provides the application harness and generic program
// builders used to model the paper's workloads: an App groups the
// threads of one multithreaded application and records its execution
// time; RandLoop builds Programs from action lists; KernelBuild and
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
		app.Go("cc", &RandLoop{Forever: true, Body: func(i int) []any {
			acts := []any{
				RandCompute(3*sim.Millisecond, 5*sim.Millisecond),
				guest.ActLock{M: b.MMSem},
				guest.ActCompute{D: 30 * sim.Microsecond},
				guest.ActUnlock{M: b.MMSem},
				RandCompute(3*sim.Millisecond, 5*sim.Millisecond),
			}
			switch (i + j) % 8 {
			case 0:
				acts = append(acts, guest.ActDequeue{Q: b.pipe})
			case 4:
				acts = append(acts, guest.ActEnqueue{Q: b.pipe, Item: struct{}{}})
			default:
				acts = append(acts, RandSleep(sim.Millisecond, 3*sim.Millisecond))
			}
			return acts
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
	for i := 0; i < slideshowThreads; i++ {
		app.Go("slideshow", &RandLoop{Forever: true, Body: func(iter int) []any {
			return []any{
				Dynamic(func(t *guest.Thread) []guest.Action {
					idle, burst := sched.entry(iter, s, t.Rand())
					return []guest.Action{
						guest.ActSleep{D: idle},
						guest.ActCompute{D: burst},
						guest.ActBarrierWait{B: join},
					}
				}),
			}
		}})
	}
}

// randCompute and randSleep are placeholders expanded by RandLoop at
// execution time using the thread's deterministic PRNG, so durations
// vary per iteration without breaking reproducibility.
type randCompute struct{ lo, hi sim.Time }
type randSleep struct{ lo, hi sim.Time }

// expand converts placeholders to concrete actions using t's PRNG.
func expand(t *guest.Thread, a any) guest.Action {
	switch v := a.(type) {
	case randCompute:
		return guest.ActCompute{D: t.Rand().Duration(v.lo, v.hi)}
	case randSleep:
		return guest.ActSleep{D: t.Rand().Duration(v.lo, v.hi)}
	case guest.Action:
		return v
	default:
		panic("workload: unknown action placeholder")
	}
}

// RandLoop repeats Body(iter) for N iterations, then exits; when
// Forever is set it never exits (background load). Body may return
// randCompute/randSleep placeholders via RandCompute/RandSleep and
// Dynamic nodes as well as plain guest actions.
type RandLoop struct {
	N       int
	Forever bool
	Body    func(iter int) []any

	iter int
	buf  []any
}

// Next implements guest.Program.
func (l *RandLoop) Next(t *guest.Thread) guest.Action {
	for {
		for len(l.buf) == 0 {
			if !l.Forever && l.iter >= l.N {
				return guest.ActExit{}
			}
			l.buf = l.Body(l.iter)
			l.iter++
		}
		a := l.buf[0]
		l.buf = l.buf[1:]
		if d, ok := a.(dynamicNode); ok {
			acts := d.fn(t)
			spliced := make([]any, 0, len(acts)+len(l.buf))
			for _, x := range acts {
				spliced = append(spliced, x)
			}
			l.buf = append(spliced, l.buf...)
			continue
		}
		return expand(t, a)
	}
}

// RandCompute returns a placeholder that expands to a uniform-duration
// compute at execution time.
func RandCompute(lo, hi sim.Time) any { return randCompute{lo: lo, hi: hi} }

// RandSleep returns a placeholder that expands to a uniform-duration
// sleep at execution time.
func RandSleep(lo, hi sim.Time) any { return randSleep{lo: lo, hi: hi} }

// dynamicNode defers action generation to execution time; the returned
// actions are spliced in front of the remaining program. Used for
// data-dependent control flow (e.g. "broadcast if I am the last
// arriver", decided while actually holding the lock).
type dynamicNode struct {
	fn func(t *guest.Thread) []guest.Action
}

// Dynamic wraps a decision callback into a program element for RandLoop
// bodies.
func Dynamic(fn func(t *guest.Thread) []guest.Action) any { return dynamicNode{fn: fn} }
