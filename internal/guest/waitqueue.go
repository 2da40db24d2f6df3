package guest

import (
	"slices"

	"vscale/internal/sim"
)

// WaitQueue is a kernel wait queue carrying items (the accept-queue /
// socket-receive pattern): threads block dequeueing; producers — other
// threads or interrupt handlers — post items and wake one waiter.
// Remote wakeups go through the reschedule-IPI path like every other
// wake in the kernel.
type WaitQueue struct {
	k  *Kernel
	id uint64
	// items[head:] are the queued items. Dequeues advance head and shift
	// the survivors down once the consumed prefix is half the slice, so
	// a listen-backlog-sized accept queue keeps its backing array at O(1)
	// amortised cost per item.
	items   []any
	head    int
	waiters []*Thread
	// producers are threads blocked in Enqueue on a full queue
	// (bounded-buffer backpressure).
	producers []*Thread

	// MaxItems, when non-zero, bounds the queue; Post returns false and
	// drops the item when full (a listen backlog), while Enqueue
	// blocks instead.
	MaxItems int

	Posts, Drops uint64
}

// NewWaitQueue creates an empty wait queue (maxItems 0 = unbounded).
func (k *Kernel) NewWaitQueue(maxItems int) *WaitQueue {
	return &WaitQueue{k: k, id: k.nextSyncID(), MaxItems: maxItems}
}

// Len returns the number of queued items.
func (q *WaitQueue) Len() int { return len(q.items) - q.head }

// Waiters returns the number of blocked consumers.
func (q *WaitQueue) Waiters() int { return len(q.waiters) }

// Post enqueues an item, waking one blocked consumer. fromCPU is the CPU
// doing the post (interrupt handlers pass the delivering CPU). It
// reports whether the item was accepted.
func (q *WaitQueue) Post(item any, fromCPU int) bool {
	q.Posts++
	if q.MaxItems > 0 && q.Len() >= q.MaxItems {
		q.Drops++
		return false
	}
	q.items = append(q.items, item)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = slices.Delete(q.waiters, 0, 1)
		q.k.wakeThread(w, fromCPU)
	}
	return true
}

// take removes and returns the head item.
func (q *WaitQueue) take() any {
	item := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return item
}

// dequeueAdvance implements Dequeue: phase 0 = fast path or sleep,
// phase 1 = woken, take the item.
func (k *Kernel) dequeueAdvance(c *cpu, t *Thread, q *WaitQueue) {
	switch t.phase {
	case 0, 1:
		if q.Len() > 0 {
			t.Mailbox = q.take()
			// Space freed: release one blocked producer.
			if len(q.producers) > 0 {
				p := q.producers[0]
				q.producers = slices.Delete(q.producers, 0, 1)
				k.wakeThread(p, c.id)
			}
			k.chargeAndContinue(c, t, sim.Microsecond)
			t.phase = 2
			return
		}
		// Spurious wake or nothing yet: (re-)join the waiters.
		t.phase = 1
		q.waiters = append(q.waiters, t)
		k.sleepCurrent(c, t)
	case 2:
		k.complete(c, t)
	default:
		panic("guest: bad dequeue phase")
	}
}

// enqueueAdvance implements Enqueue: phase 0/1 = try to append or
// sleep on a full queue; phase 2 = done.
func (k *Kernel) enqueueAdvance(c *cpu, t *Thread, q *WaitQueue, item any) {
	switch t.phase {
	case 0, 1:
		if q.MaxItems == 0 || q.Len() < q.MaxItems {
			q.Posts++
			q.items = append(q.items, item)
			if len(q.waiters) > 0 {
				w := q.waiters[0]
				q.waiters = slices.Delete(q.waiters, 0, 1)
				k.wakeThread(w, c.id)
			}
			k.chargeAndContinue(c, t, sim.Microsecond)
			t.phase = 2
			return
		}
		// Full: block until a consumer makes room.
		t.phase = 1
		q.producers = append(q.producers, t)
		k.sleepCurrent(c, t)
	case 2:
		k.complete(c, t)
	default:
		panic("guest: bad enqueue phase")
	}
}

// callAdvance implements Call: phase 0 = charge cost, phase 1 = run f
// and finish.
func (k *Kernel) callAdvance(c *cpu, t *Thread, cost sim.Time, f func(t *Thread)) {
	switch t.phase {
	case 0:
		t.phase = 1
		k.chargeAndContinue(c, t, cost)
	case 1:
		if f != nil {
			f(t)
		}
		k.complete(c, t)
	default:
		panic("guest: bad call phase")
	}
}
