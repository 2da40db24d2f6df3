package guest

import (
	"testing"

	"vscale/internal/sim"
)

// These gates pin the guest's FIFOs (device completions, wait-queue
// items and waiters, runqueues) to their backing arrays: once warmed, a
// cycle through them allocates nothing. A pop that sheds capacity makes
// the next push reallocate, which is what they catch.

// dequeueForever is a consumer Program that dequeues from q forever.
type dequeueForever struct{ q *WaitQueue }

func (p dequeueForever) Next(*Thread) Action { return Dequeue(p.q) }

// busyEnv boots a one-vCPU guest whose vCPU is kept running by a
// compute-bound thread, so interrupts are delivered synchronously.
func busyEnv(t *testing.T) *testEnv {
	t.Helper()
	e := newEnv(t, 1, 1, nil, false)
	e.spawn("busy", Compute(1000*sim.Second))
	return e
}

func TestDeviceRaiseDeliverAllocs(t *testing.T) {
	e := busyEnv(t)
	dev := e.k.NewDevice("nic", 0, 5*sim.Microsecond)
	e.run(t, 10*sim.Millisecond)
	fired := 0
	done := func(int) { fired++ }
	raise := func() {
		dev.Raise(done)
		dev.Raise(done)
	}
	raise()
	if n := testing.AllocsPerRun(100, raise); n != 0 {
		t.Fatalf("Device Raise → deliver allocated %v times per cycle, want 0", n)
	}
	if want := 2 * 102; fired != want {
		t.Fatalf("%d completions ran, want %d", fired, want)
	}
}

func TestWaitQueuePostDequeueAllocs(t *testing.T) {
	e := busyEnv(t)
	q := e.k.NewWaitQueue(0)
	e.k.Spawn("consumer", Uthread, dequeueForever{q}, nil)
	e.run(t, 10*sim.Millisecond)
	item := any(new(int))
	cycle := func() {
		for i := 0; i < 3; i++ {
			q.Post(item, 0)
		}
		if err := e.eng.RunUntil(e.eng.Now() + 50*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("WaitQueue post → dequeue allocated %v times per cycle, want 0", n)
	}
	if q.Len() != 0 || q.Waiters() != 1 || q.Posts != 3*104 {
		t.Fatalf("consumer fell behind: len=%d waiters=%d posts=%d", q.Len(), q.Waiters(), q.Posts)
	}
}

// cycle is a Program that repeats acts forever without allocating.
type cycle struct {
	acts []Action
	i    int
}

func (p *cycle) Next(*Thread) Action {
	a := p.acts[p.i]
	p.i = (p.i + 1) % len(p.acts)
	return a
}

// TestContendedMutexRoundAllocs pins the mutex slow paths to typed
// continuations: two threads on two vCPUs take turns on one mutex, so
// every lock finds it held and futex-waits, and every unlock hands it
// over and wakes the waiter with a reschedule IPI. Once warmed, a round
// allocates nothing.
func TestContendedMutexRoundAllocs(t *testing.T) {
	e := newEnv(t, 2, 2, nil, false)
	m := e.k.NewMutex()
	for i := 0; i < 2; i++ {
		e.k.Spawn("locker", Uthread, &cycle{acts: []Action{
			Lock(m),
			Compute(300 * sim.Microsecond),
			Unlock(m),
			Compute(100 * sim.Microsecond),
		}}, nil)
	}
	e.run(t, 50*sim.Millisecond)
	round := func() {
		if err := e.eng.RunUntil(e.eng.Now() + 800*sim.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	contended, ipis := m.Contended, e.k.CPUStatsOf(0).ReschedIPIs+e.k.CPUStatsOf(1).ReschedIPIs
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("contended lock/unlock round allocated %v times, want 0", n)
	}
	if m.Contended-contended < 100 {
		t.Fatalf("%d contended acquisitions in 101 rounds: the slow path was not exercised", m.Contended-contended)
	}
	if e.k.CPUStatsOf(0).ReschedIPIs+e.k.CPUStatsOf(1).ReschedIPIs == ipis {
		t.Fatal("no reschedule IPIs: the wakes were not remote")
	}
}

// TestNewKernelAllocs bounds what building a guest kernel allocates:
// its futex-bucket locks live in the kernel itself and share one table
// of names, so a 4-vCPU kernel costs its CPUs' timers and bound
// continuations, not an object and a formatted name per bucket.
func TestNewKernelAllocs(t *testing.T) {
	e := newEnv(t, 4, 4, nil, false)
	cfg := e.k.Config()
	build := func() { NewKernel(e.dom, cfg) }
	if n := testing.AllocsPerRun(20, build); n > 64 {
		t.Fatalf("NewKernel with 4 vCPUs allocated %v times, want at most 64", n)
	}
}
