package sim

import (
	"fmt"
	"math/bits"
)

// EventFunc is the body of a scheduled event. It runs at the event's
// virtual timestamp with the engine clock already advanced.
type EventFunc func()

// Event is one pending entry in the engine's queue. Events are pooled:
// once fired or cancelled they are recycled for the next At/After call,
// so user code never holds a *Event directly — it holds a
// generation-stamped EventRef instead.
type Event struct {
	// when and seq are the arming's key. The slot that queues the event
	// holds a copy, which in the heap may be an older, lesser key (see
	// Engine.Reschedule); a heap slot whose seq differs from the event's
	// is stale.
	when Time
	seq  uint64
	gen  uint64 // bumped on every recycle; stale EventRefs mismatch
	// index is the position of the event's heap slot, its lane entry
	// (see laneIndex) when below -1, or -1 when it is not queued.
	index  int
	fn     EventFunc
	label  string
	series *series // non-nil while the event stands for a Series element
}

// laneIndex is the Event.index of an event at ring position pos of the
// lane; laneOf inverts it.
func laneIndex(pos uint) int { return -2 - int(pos) }

func laneOf(index int) uint { return uint(-2 - index) }

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
// Every event in the heap has Event.index at the position of its slot.
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

// laneDelay is the delay of the armings queued in the engine's lane
// instead of its heap: exactly one millisecond, the guest's tick.
const laneDelay = Millisecond

// lane is a FIFO ring of the armings made exactly laneDelay from now.
// Each such arming takes the next sequence number, and its deadline is
// no earlier than any earlier one's because the clock never moves back,
// so appending keeps the lane sorted by (when, seq) and its oldest entry
// is its least. A cancel or a reschedule leaves a hole, an entry with no
// event, which front skips when it reaches the head. The ring keeps its
// capacity: when full it drops its holes if they are at least half of
// it, and doubles otherwise.
type lane struct {
	buf []slot // len is zero or a power of two
	// head and tail are ring positions, which only grow: the entries are
	// at positions head up to tail-1, position p in buf[p&mask].
	head, tail uint
	n          int // entries that are not holes
}

// push appends x and returns the Event.index for the new entry.
func (l *lane) push(x slot) int {
	if l.tail-l.head == uint(len(l.buf)) {
		if len(l.buf) > 0 && 2*l.n <= len(l.buf) {
			l.compact()
		} else {
			l.grow()
		}
	}
	pos := l.tail
	l.buf[pos&uint(len(l.buf)-1)] = x
	l.tail++
	l.n++
	return laneIndex(pos)
}

// grow doubles the ring. Every entry keeps its position, so the
// Event.index of each queued event stays valid.
func (l *lane) grow() {
	buf := make([]slot, max(2*len(l.buf), 16))
	for p := l.head; p != l.tail; p++ {
		buf[p&uint(len(buf)-1)] = l.buf[p&uint(len(l.buf)-1)]
	}
	l.buf = buf
}

// compact drops the holes: the entries move up, in order, to the
// positions from head on, and their events are re-indexed.
func (l *lane) compact() {
	mask := uint(len(l.buf) - 1)
	p := l.head
	for q := l.head; q != l.tail; q++ {
		x := l.buf[q&mask]
		l.buf[q&mask] = slot{}
		if x.ev != nil {
			l.buf[p&mask] = x
			x.ev.index = laneIndex(p)
			p++
		}
	}
	l.tail = p
}

// front returns the oldest entry that is not a hole, dropping the holes
// ahead of it. The lane must hold one (n > 0).
func (l *lane) front() *slot {
	for {
		if x := &l.buf[l.head&uint(len(l.buf)-1)]; x.ev != nil {
			return x
		}
		l.head++
	}
}

// pop drops the head entry, which front returned.
func (l *lane) pop() {
	l.buf[l.head&uint(len(l.buf)-1)] = slot{}
	l.head++
	l.n--
}

// punch turns the entry at pos into a hole.
func (l *lane) punch(pos uint) {
	l.buf[pos&uint(len(l.buf)-1)].ev = nil
	l.n--
}

// Observer receives every executed event (virtual timestamp plus the
// label given at scheduling time). Cancelled events are never observed:
// Cancel takes them out of the queue. Observers must be pure with
// respect to simulation state — they exist for tracing.
type Observer func(at Time, label string)

// Engine is the discrete-event simulation core: a virtual clock and an
// ordered queue of future events. Engines are not safe for concurrent
// use; the entire simulation is single-threaded and deterministic.
//
// The queue is a heap plus a lane (see lane): the armings made exactly
// one millisecond ahead wait in the lane, every other arming in the
// heap, and the engine fires the lesser of the heap root and the lane
// head.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	lane    lane
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

// place queues ev under when and the next sequence number: in the lane
// when when is exactly laneDelay from now, in the heap otherwise.
func (e *Engine) place(ev *Event, when Time) {
	x := slot{when: when, seq: e.seq, ev: ev}
	e.seq++
	ev.when, ev.seq = when, x.seq
	if when-e.now == laneDelay {
		ev.index = e.lane.push(x)
	} else {
		e.queue.push(x)
	}
}

// At schedules fn to run at absolute virtual time when. Scheduling in the
// past panics. The label is kept for debugging.
func (e *Engine) At(when Time, label string, fn EventFunc) EventRef {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", label, when, e.now))
	}
	ev := e.alloc()
	ev.fn = fn
	ev.label = label
	e.place(ev, when)
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
//
// A series always waits in the heap: its later elements carry sequence
// numbers older than the armings made meanwhile, so they cannot join the
// lane's tail.
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
	ev.when, ev.seq = whens[0], s.seq0
	ev.label = label
	ev.series = s
	e.queue.push(slot{when: ev.when, seq: ev.seq, ev: ev})
}

// Cancel retires the arming behind ref: its event leaves the heap, or
// leaves a hole in the lane, and is recycled at once. It is safe to
// cancel a stale or zero ref (the event already fired, was already
// cancelled, or was never scheduled); those calls are no-ops and do not
// count towards the Cancelled drop accounting.
func (e *Engine) Cancel(ref EventRef) {
	if !ref.Pending() {
		return
	}
	e.Cancelled++
	e.LastCancelAt = e.now
	if ev := ref.ev; ev.index >= 0 {
		e.queue.remove(ev.index)
	} else {
		e.lane.punch(laneOf(ev.index))
	}
	e.recycle(ref.ev)
}

// Reschedule moves a still-pending arming to a new absolute time in
// place — no new entry is pushed, which is what makes steady-state timer
// rearm allocation-free. It reports false (and does nothing) when ref is
// stale, cancelled, or zero. ref itself remains valid and now addresses
// the new deadline.
//
// Accounting-wise a reschedule retires the previous arming and books a
// new one (Cancelled++ and Scheduled++), and the new arming takes a
// fresh FIFO sequence number — exactly the counters and firing order the
// equivalent Cancel+After pair would have produced, so the rewrite is
// observation-equivalent to the old cancel-and-repush timers.
//
// Where the arming waits afterwards follows At: the lane for a deadline
// exactly laneDelay from now, the heap otherwise. An arming in the lane
// leaves a hole there, and one moved from the heap to the lane leaves
// the heap at once. One moved within the heap no earlier than its slot's
// key keeps the slot as it is: the fresh seq marks it stale, a lower
// bound that next re-keys once it reaches the root. Only a move to an
// earlier time sifts at once.
func (e *Engine) Reschedule(ref EventRef, when Time) bool {
	if !ref.Pending() {
		return false
	}
	ev := ref.ev
	if when < e.now {
		panic(fmt.Sprintf("sim: rescheduling %q at %v before now %v", ev.label, when, e.now))
	}
	e.Cancelled++
	e.LastCancelAt = e.now
	e.Scheduled++
	if ev.index >= 0 {
		if when-e.now != laneDelay {
			ev.when, ev.seq = when, e.seq
			e.seq++
			if when < e.queue.a[ev.index].when {
				e.queue.up(ev.index, slot{when: when, seq: ev.seq, ev: ev})
			}
			return true
		}
		e.queue.remove(ev.index)
	} else {
		e.lane.punch(laneOf(ev.index))
	}
	e.place(ev, when)
	return true
}

// Pending returns the number of armings still queued. A Series counts
// once: only its next element is queued.
func (e *Engine) Pending() int { return len(e.queue.a) + e.lane.n }

// Stop makes the current Run/RunUntil call return after the in-flight
// event completes.
func (e *Engine) Stop() { e.stopped = true }

// next returns the slot of the earliest pending arming and whether the
// lane holds it, or nil when nothing is pending. It drops the holes at
// the lane head, and re-keys the heap root until it is fresh or its key,
// a lower bound, orders after the lane head: a stale root is never fired
// and never compared as if its key were true.
func (e *Engine) next() (x *slot, inLane bool) {
	if e.lane.n > 0 {
		x, inLane = e.lane.front(), true
	}
	h := &e.queue
	for len(h.a) > 0 && (x == nil || less(h.a[0], *x) != 0) {
		r := h.a[0]
		if r.seq == r.ev.seq {
			return &h.a[0], false
		}
		h.down(0, slot{when: r.ev.when, seq: r.ev.seq, ev: r.ev})
	}
	return x, inLane
}

// step executes the earliest pending event if it is due by deadline,
// and reports whether there was one. The event is recycled before its
// body runs, so the body (and anything it calls) can immediately reuse
// the slot; its outstanding refs have gone stale by then.
func (e *Engine) step(deadline Time) bool {
	x, inLane := e.next()
	if x == nil || x.when > deadline {
		return false
	}
	ev := x.ev
	if x.when < e.now {
		panic("sim: event queue yielded an event in the past")
	}
	e.now = x.when
	e.Processed++
	if inLane {
		e.lane.pop()
		ev.index = -1
	} else if s := ev.series; s != nil {
		e.stepSeries(ev, s)
		return true
	} else {
		e.queue.popMin()
	}
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
		ev.when, ev.seq = s.whens[s.next], s.seq0+uint64(s.next)
		e.queue.down(0, slot{when: ev.when, seq: ev.seq, ev: ev})
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
		if !e.step(MaxTime) {
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
		if !e.step(deadline) {
			break
		}
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return nil
}
