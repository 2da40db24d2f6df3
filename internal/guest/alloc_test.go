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

func (p dequeueForever) Next(*Thread) Action { return ActDequeue{Q: p.q} }

// busyEnv boots a one-vCPU guest whose vCPU is kept running by a
// compute-bound thread, so interrupts are delivered synchronously.
func busyEnv(t *testing.T) *testEnv {
	t.Helper()
	e := newEnv(t, 1, 1, nil, nil)
	e.spawn("busy", ActCompute{D: 1000 * sim.Second})
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
