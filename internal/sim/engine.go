package sim

import (
	"fmt"
	"math/bits"
)

// EventFunc is the body of a scheduled event. It runs at the event's
// virtual timestamp with the engine clock already advanced.
type EventFunc func()

// Event is one pending entry in the engine's priority queue. Events are
// pooled: once fired or cancelled they are recycled for the next
// At/After call, so user code never holds a *Event directly — it holds
// a generation-stamped EventRef instead.
type Event struct {
	when   Time   // also kept, with the FIFO sequence number, in its heap slot
	gen    uint64 // bumped on every recycle; stale EventRefs mismatch
	index  int    // position of its slot in the heap array, -1 when not queued
	fn     EventFunc
	label  string
	series *series // non-nil while the event stands for a Series element
}

// series is the engine side of one lazily expanded event series (see
// Engine.Series): its instants, the index of the element currently
// queued, the FIFO sequence number reserved for element 0, and the body.
type series struct {
	whens []Time
	next  int
	seq0  uint64
	fn    EventFunc
}

// EventRef is a handle to a scheduled event: the event plus the
// generation it had when scheduled. Because events are pooled, a ref
// whose generation no longer matches refers to an event that already
// fired or was cancelled; Cancel and Reschedule treat such stale refs
// as safe no-ops. The zero EventRef is valid and never pending.
type EventRef struct {
	ev  *Event
	gen uint64
}

// Pending reports whether the event is still queued and will fire: the
// ref still addresses its original scheduling.
func (r EventRef) Pending() bool { return r.ev != nil && r.ev.gen == r.gen }

// When returns the virtual time the event is scheduled for, or MaxTime
// ("never") if the ref is stale, cancelled, or zero.
func (r EventRef) When() Time {
	if r.Pending() {
		return r.ev.when
	}
	return MaxTime
}

// Label returns the debug label given at scheduling time, or "" if the
// ref is no longer pending.
func (r EventRef) Label() string {
	if r.Pending() {
		return r.ev.label
	}
	return ""
}

// heapArity is the fan-out of the pending-event heap. A 4-ary heap does
// ~half the levels of a binary heap on sift-down (the pop path) and
// keeps a family's four keys within two or three cache lines. The
// tournament in down is written for exactly four children.
const heapArity = 4

// slot is one heap entry: the event's (when, seq) key kept inline next
// to the event, so sifting compares keys in the contiguous slot array
// and dereferences an event only to update its index when it moves.
type slot struct {
	when Time
	seq  uint64
	ev   *Event
}

// less returns 1 when x orders before y by (when, seq) and 0 otherwise.
// It is one 128-bit unsigned compare, the borrow of seq feeding the
// subtraction of when, so neither it nor a select on its result has a
// branch to mispredict on the ties that are common in practice. Heap
// times are never negative (At and Reschedule refuse times before now,
// and now starts at 0), so comparing them as unsigned keeps their order.
func less(x, y slot) int {
	_, b := bits.Sub64(x.seq, y.seq, 0)
	_, b = bits.Sub64(uint64(x.when), uint64(y.when), b)
	return int(b)
}

// eventHeap is an inlined, index-tracked 4-ary min-heap of slots,
// ordered by (when, seq). It replaces container/heap to avoid interface
// boxing and indirect method calls on the hottest loop in the simulator.
// Every queued event's Event.index is the position of its slot.
type eventHeap struct {
	a []slot
}

// push queues x.ev under the key in x.
func (h *eventHeap) push(x slot) {
	h.a = append(h.a, slot{})
	h.up(len(h.a)-1, x)
}

// up places x at the hole i or above it, moving parents down into the
// hole rather than swapping (one index write per level).
func (h *eventHeap) up(i int, x slot) {
	a := h.a
	for i > 0 {
		p := (i - 1) / heapArity
		if less(x, a[p]) == 0 {
			break
		}
		a[i] = a[p]
		a[i].ev.index = i
		i = p
	}
	a[i] = x
	x.ev.index = i
}

// down places x at the hole i or below it, moving the least child up
// into the hole at each level.
func (h *eventHeap) down(i int, x slot) {
	a := h.a
	n := len(a)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		if kids := a[first:min(first+heapArity, n)]; len(kids) == heapArity {
			// A full family is a two-round tournament; each round selects
			// by arithmetic on the compare, not by a branch.
			l := less(kids[1], kids[0])
			r := 2 + less(kids[3], kids[2])
			best += l + (r-l)&-less(kids[r], kids[l])
		} else {
			for c := first + 1; c < n; c++ {
				best += (c - best) & -less(a[c], a[best])
			}
		}
		if less(a[best], x) == 0 {
			break
		}
		a[i] = a[best]
		a[i].ev.index = i
		i = best
	}
	a[i] = x
	x.ev.index = i
}

// rekey gives the slot at i a new key and sifts it the one way it
// moved: up when it now orders earlier, down otherwise.
func (h *eventHeap) rekey(i int, when Time, seq uint64) {
	x := h.a[i]
	x.when, x.seq = when, seq
	if less(x, h.a[i]) != 0 {
		h.up(i, x)
	} else {
		h.down(i, x)
	}
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *Event {
	ev := h.a[0].ev
	h.remove(0)
	return ev
}

// remove takes the event at i out of the heap. The last slot fills the
// hole and sifts the one way it has to go: up when it orders before the
// removed key (never at the root), down otherwise.
func (h *eventHeap) remove(i int) {
	ev := h.a[i].ev
	n := len(h.a) - 1
	last := h.a[n]
	h.a[n] = slot{}
	h.a = h.a[:n]
	if i < n {
		if i > 0 && less(last, h.a[i]) != 0 {
			h.up(i, last)
		} else {
			h.down(i, last)
		}
	}
	ev.index = -1
}

// Observer receives every executed event (virtual timestamp plus the
// label given at scheduling time). Cancelled events are never observed:
// Cancel takes them out of the queue. Observers must be pure with
// respect to simulation state — they exist for tracing.
type Observer func(at Time, label string)

// Engine is the discrete-event simulation core: a virtual clock and an
// ordered queue of future events. Engines are not safe for concurrent
// use; the entire simulation is single-threaded and deterministic.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	free    []*Event // recycled events, reused by the next At/After
	rand    *Rand
	stopped bool
	obs     Observer

	// Processed counts events executed (not cancelled), for tests and
	// runaway-simulation guards.
	Processed uint64
	// Scheduled counts every arming ever booked: each At/After, each
	// in-place Reschedule (a new arming), and each element of a Series
	// (all of them when the series is scheduled). Together with Cancelled
	// and Processed (fired) it gives the drop accounting
	// Scheduled = Cancelled + Processed + still-pending, where
	// still-pending includes the series elements not yet queued.
	Scheduled uint64
	// Cancelled counts armings retired before firing, by Cancel or by
	// Reschedule superseding the previous deadline. Cancelling an event
	// that already fired (or was already cancelled) does not count:
	// those calls are no-ops.
	Cancelled uint64
	// LastCancelAt is the virtual time of the most recent effective
	// Cancel (zero when nothing was ever cancelled).
	LastCancelAt Time
	// Limit, when non-zero, aborts Run with an error after this many
	// executed events. It guards against accidental infinite event loops.
	Limit uint64
}

// NewEngine returns an engine with the clock at zero and a deterministic
// PRNG seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rand: NewRand(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic PRNG.
func (e *Engine) Rand() *Rand { return e.rand }

// SetObserver installs obs (nil uninstalls). The observer is invoked
// for every executed event, immediately before the event body runs.
func (e *Engine) SetObserver(obs Observer) { e.obs = obs }

// alloc takes an event from the free list, or heap-allocates when the
// pool is dry (cold start, or high-water growth of in-flight events).
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// recycle returns a no-longer-queued event to the pool. The generation
// bump is what turns every outstanding EventRef to it stale.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.label = ""
	ev.series = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute virtual time when. Scheduling in the
// past panics. The label is kept for debugging.
func (e *Engine) At(when Time, label string, fn EventFunc) EventRef {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", label, when, e.now))
	}
	ev := e.alloc()
	ev.when = when
	ev.fn = fn
	ev.label = label
	e.queue.push(slot{when: when, seq: e.seq, ev: ev})
	e.seq++
	e.Scheduled++
	return EventRef{ev: ev, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, label string, fn EventFunc) EventRef {
	checkNonNegative(d)
	return e.At(e.now+d, label, fn)
}

// Series schedules fn at every instant in whens, with the firing order
// and accounting of len(whens) back-to-back At calls: it reserves
// one FIFO sequence number per element, in index order, and books every
// element into Scheduled now. Only the earliest unfired element is ever
// queued; firing it queues the next under its reserved number before
// fn runs. Ties with other events at the same instant therefore break
// exactly as they would for individually scheduled events, while the
// pending-event set grows by one entry however long the series is.
//
// whens must be non-decreasing and start at or after now; anything else
// panics, like scheduling in the past. The engine keeps whens, so the
// caller must not modify it afterwards. A series cannot be cancelled.
func (e *Engine) Series(whens []Time, label string, fn EventFunc) {
	if len(whens) == 0 {
		return
	}
	if whens[0] < e.now {
		panic(fmt.Sprintf("sim: series %q starts at %v before now %v", label, whens[0], e.now))
	}
	for i := 1; i < len(whens); i++ {
		if whens[i] < whens[i-1] {
			panic(fmt.Sprintf("sim: series %q element %d at %v precedes element %d at %v",
				label, i, whens[i], i-1, whens[i-1]))
		}
	}
	s := &series{whens: whens, seq0: e.seq, fn: fn}
	e.seq += uint64(len(whens))
	e.Scheduled += uint64(len(whens))
	ev := e.alloc()
	ev.when = whens[0]
	ev.label = label
	ev.series = s
	e.queue.push(slot{when: whens[0], seq: s.seq0, ev: ev})
}

// Cancel retires the arming behind ref: its event leaves the queue and
// is recycled at once. It is safe to cancel a stale or zero ref (the
// event already fired, was already cancelled, or was never scheduled);
// those calls are no-ops and do not count towards the Cancelled drop
// accounting.
func (e *Engine) Cancel(ref EventRef) {
	if !ref.Pending() {
		return
	}
	e.Cancelled++
	e.LastCancelAt = e.now
	e.queue.remove(ref.ev.index)
	e.recycle(ref.ev)
}

// Reschedule moves a still-pending arming to a new absolute time by
// sifting the event in place, only in the direction its key moved — no
// new entry is pushed, which is what makes steady-state timer rearm
// allocation-free. It reports false (and does nothing) when ref is
// stale, cancelled, or zero. ref itself remains valid and now addresses
// the new deadline.
//
// Accounting-wise a reschedule retires the previous arming and books a
// new one (Cancelled++ and Scheduled++), and the new arming takes a
// fresh FIFO sequence number — exactly the counters and firing order the
// equivalent Cancel+After pair would have produced, so the rewrite is
// observation-equivalent to the old cancel-and-repush timers.
func (e *Engine) Reschedule(ref EventRef, when Time) bool {
	if !ref.Pending() {
		return false
	}
	if when < e.now {
		panic(fmt.Sprintf("sim: rescheduling %q at %v before now %v", ref.ev.label, when, e.now))
	}
	e.Cancelled++
	e.LastCancelAt = e.now
	e.Scheduled++
	ev := ref.ev
	ev.when = when
	e.queue.rekey(ev.index, when, e.seq)
	e.seq++
	return true
}

// Pending returns the number of armings still queued. A Series counts
// once: only its next element is queued.
func (e *Engine) Pending() int { return len(e.queue.a) }

// Stop makes the current Run/RunUntil call return after the in-flight
// event completes.
func (e *Engine) Stop() { e.stopped = true }

// step pops and executes the next event. It reports false when the
// queue is exhausted. The event is recycled before its body runs, so
// the body (and anything it calls) can immediately reuse the slot; its
// outstanding refs have gone stale by then.
func (e *Engine) step() bool {
	if len(e.queue.a) == 0 {
		return false
	}
	root := &e.queue.a[0]
	if root.when < e.now {
		panic("sim: event heap yielded an event in the past")
	}
	e.now = root.when
	e.Processed++
	if s := root.ev.series; s != nil {
		e.stepSeries(root.ev, s)
		return true
	}
	ev := e.queue.popMin()
	fn, label := ev.fn, ev.label
	e.recycle(ev)
	if e.obs != nil {
		e.obs(e.now, label)
	}
	fn()
	return true
}

// stepSeries runs the element of s that the root event ev stands for.
// Before the body runs, ev advances in place to the next element under
// its reserved sequence number — where the equivalent At call would
// already have it; its key only grows, so it sifts down — or leaves the
// heap and is recycled after the last one.
func (e *Engine) stepSeries(ev *Event, s *series) {
	label := ev.label
	s.next++
	if s.next < len(s.whens) {
		ev.when = s.whens[s.next]
		e.queue.down(0, slot{when: ev.when, seq: s.seq0 + uint64(s.next), ev: ev})
	} else {
		e.queue.popMin()
		e.recycle(ev)
	}
	if e.obs != nil {
		e.obs(e.now, label)
	}
	s.fn()
}

// Run executes events until the queue is empty or Stop is called. It
// returns an error only if the event Limit was exceeded.
func (e *Engine) Run() error {
	e.stopped = false
	for !e.stopped {
		if e.Limit != 0 && e.Processed >= e.Limit {
			return fmt.Errorf("sim: event limit %d exceeded at %v", e.Limit, e.now)
		}
		if !e.step() {
			return nil
		}
	}
	return nil
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to exactly deadline. Events after the deadline remain queued.
// If Stop is called by an event, the clock stays where the stop
// happened.
func (e *Engine) RunUntil(deadline Time) error {
	e.stopped = false
	for !e.stopped {
		if e.Limit != 0 && e.Processed >= e.Limit {
			return fmt.Errorf("sim: event limit %d exceeded at %v", e.Limit, e.now)
		}
		if len(e.queue.a) == 0 || e.queue.a[0].when > deadline {
			break
		}
		e.step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return nil
}
