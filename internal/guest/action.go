package guest

import (
	"fmt"

	"vscale/internal/sim"
)

// Program is a workload state machine: the kernel calls Next each time
// the previous action completed, and executes the returned action on the
// thread. Programs run strictly single-threaded per Thread.
type Program interface {
	Next(t *Thread) Action
}

// actKind names what an Action does.
type actKind uint8

const (
	actNone actKind = iota // the zero Action: nothing pending
	actCompute
	actExit
	actSleep
	actBarrierWait
	actLock
	actUnlock
	actCondWait
	actCondSignal
	actCondBroadcast
	actSpinWait
	actSpinSet
	actIO
	actDequeue
	actEnqueue
	actCall
)

var actNames = [...]string{
	actNone:          "none",
	actCompute:       "compute",
	actExit:          "exit",
	actSleep:         "sleep",
	actBarrierWait:   "barrier-wait",
	actLock:          "lock",
	actUnlock:        "unlock",
	actCondWait:      "cond-wait",
	actCondSignal:    "cond-signal",
	actCondBroadcast: "cond-broadcast",
	actSpinWait:      "spin-wait",
	actSpinSet:       "spin-set",
	actIO:            "io",
	actDequeue:       "dequeue",
	actEnqueue:       "enqueue",
	actCall:          "call",
}

func (k actKind) String() string {
	if int(k) < len(actNames) {
		return actNames[k]
	}
	return fmt.Sprintf("actKind(%d)", int(k))
}

// Action is one step of a Program, built by the constructor functions
// below. It is a plain 48-byte value: handing one to the kernel
// allocates nothing, and a Program may build its actions once and return
// the same value every time it reaches that step. The zero Action is not
// a valid step.
type Action struct {
	kind actKind
	// d is the compute or sleep duration, the I/O service time, the CPU
	// cost charged before a call, or a spin wait's target generation.
	d sim.Time
	// obj is what the action works on: its *Barrier, *Mutex, *Cond,
	// *SpinVar, *WaitQueue or *Device, or a call's func(*Thread).
	obj any
	// arg is a cond wait's *Mutex or an enqueue's item.
	arg any
}

// Compute runs d of pure CPU work.
func Compute(d sim.Time) Action { return Action{kind: actCompute, d: d} }

// Exit terminates the thread.
func Exit() Action { return Action{kind: actExit} }

// Sleep blocks the thread for d (timer wakeup).
func Sleep(d sim.Time) Action { return Action{kind: actSleep, d: d} }

// BarrierWait joins an OpenMP-style barrier (spin-then-futex according
// to the barrier's spin budget).
func BarrierWait(b *Barrier) Action { return Action{kind: actBarrierWait, obj: b} }

// Lock acquires a futex-based mutex (user fast path; kernel slow path
// with bucket spinlock on contention).
func Lock(m *Mutex) Action { return Action{kind: actLock, obj: m} }

// Unlock releases a mutex, waking one waiter if present.
func Unlock(m *Mutex) Action { return Action{kind: actUnlock, obj: m} }

// CondWait atomically releases m and sleeps on c; on wakeup it
// re-acquires m before completing.
func CondWait(c *Cond, m *Mutex) Action { return Action{kind: actCondWait, obj: c, arg: m} }

// CondSignal wakes one waiter of c.
func CondSignal(c *Cond) Action { return Action{kind: actCondSignal, obj: c} }

// CondBroadcast wakes all waiters of c.
func CondBroadcast(c *Cond) Action { return Action{kind: actCondBroadcast, obj: c} }

// SpinWait busy-waits (pure user-level spinning, no futex fallback —
// the ad-hoc synchronisation of NPB's lu) until s's generation reaches
// gen.
func SpinWait(s *SpinVar, gen uint64) Action {
	return Action{kind: actSpinWait, obj: s, d: sim.Time(gen)}
}

// SpinSet advances s's generation, releasing spinners waiting for it.
func SpinSet(s *SpinVar) Action { return Action{kind: actSpinSet, obj: s} }

// IO submits an I/O of the given service time on dev and blocks until
// its completion interrupt is processed.
func IO(dev *Device, service sim.Time) Action { return Action{kind: actIO, obj: dev, d: service} }

// Dequeue blocks the thread until an item is available on q; the item
// lands in Thread.Mailbox.
func Dequeue(q *WaitQueue) Action { return Action{kind: actDequeue, obj: q} }

// Enqueue puts item on q, blocking while the queue is full (the
// bounded-buffer producer side: pipeline backpressure).
func Enqueue(q *WaitQueue, item any) Action { return Action{kind: actEnqueue, obj: q, arg: item} }

// Call runs f synchronously as part of the thread's execution after
// charging cost of CPU (side-effect escape hatch for workload models:
// transmitting a response, recording a timestamp). A nil f only charges
// the cost.
func Call(cost sim.Time, f func(t *Thread)) Action { return Action{kind: actCall, d: cost, obj: f} }
