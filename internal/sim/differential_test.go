package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"testing"
)

// This file retains the seed event core — container/heap over boxed
// events, cancel-as-tombstone, reschedule as cancel-and-repush — as a
// reference implementation, and replays large randomized workloads
// through both engines. The rewritten core (4-ary heap, pooled events,
// in-place reschedule, in-place cancel) must produce the identical
// firing sequence, timestamps, drop accounting, and count of queued
// armings.

type refEvent struct {
	when      Time
	seq       uint64
	index     int
	fn        func()
	cancelled bool
	fired     bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

type refEngine struct {
	now                             Time
	seq                             uint64
	queue                           refHeap
	scheduled, cancelled, processed uint64
	purged                          uint64 // live armings dropped by purge
	lastCancelAt                    Time
}

func (e *refEngine) At(when Time, fn func()) *refEvent {
	ev := &refEvent{when: when, seq: e.seq, fn: fn}
	e.seq++
	e.scheduled++
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) Cancel(ev *refEvent) {
	if ev == nil || ev.cancelled || ev.fired {
		return
	}
	ev.cancelled = true
	e.cancelled++
	e.lastCancelAt = e.now
}

// Reschedule is the seed pattern: cancel the old arming, push a fresh
// event with the same body and a new sequence number. It returns the
// replacement handle (nil when the arming was no longer live).
func (e *refEngine) Reschedule(ev *refEvent, when Time) *refEvent {
	if ev == nil || ev.cancelled || ev.fired {
		return nil
	}
	e.Cancel(ev)
	return e.At(when, ev.fn)
}

func (e *refEngine) step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.cancelled {
			continue
		}
		e.now = ev.when
		ev.fired = true
		e.processed++
		ev.fn()
		return true
	}
	return false
}

func (e *refEngine) RunUntil(deadline Time) {
	for {
		var next *refEvent
		for len(e.queue) > 0 {
			if top := e.queue[0]; !top.cancelled {
				next = top
				break
			}
			heap.Pop(&e.queue)
		}
		if next == nil || next.when > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

func (e *refEngine) Run() {
	for e.step() {
	}
}

// pending lists the live armings in firing order, as PendingEvents does.
func (e *refEngine) pending() []PendingEvent {
	var out []PendingEvent
	for _, ev := range e.queue {
		if !ev.cancelled && !ev.fired {
			out = append(out, PendingEvent{When: ev.when, Seq: ev.seq})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].When != out[j].When {
			return out[i].When < out[j].When
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// purge drops every live arming without counting it cancelled, as
// PurgeAll does, and returns how many it dropped.
func (e *refEngine) purge() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.cancelled && !ev.fired {
			ev.cancelled = true
			n++
		}
	}
	e.queue = e.queue[:0]
	e.purged += uint64(n)
	return n
}

// samePending fails t unless the engine's pending descriptors carry the
// reference's keys, in the same order.
func samePending(t *testing.T, op int, e *Engine, ref *refEngine) {
	t.Helper()
	got, want := e.PendingEvents(), ref.pending()
	if len(got) != len(want) {
		t.Fatalf("op %d: %d pending descriptors, reference has %d live", op, len(got), len(want))
	}
	for i := range got {
		if got[i].When != want[i].When || got[i].Seq != want[i].Seq {
			t.Fatalf("op %d: pending %d is (%v, %d), reference (%v, %d)", op, i, got[i].When, got[i].Seq, want[i].When, want[i].Seq)
		}
	}
}

// fireRec is one observed firing: which logical event, and when.
type fireRec struct {
	id int
	at Time
}

// TestDifferentialEngineEquivalence replays ≥10^5 randomized
// schedule/cancel/reschedule/advance operations — including events whose
// bodies schedule children and cancel siblings — through both engines
// and requires identical firing order, timestamps, and accounting. After
// every operation the new engine must queue exactly the reference's live
// armings.
//
// The fine cases draw every delay in 1 µs steps, so two events rarely
// share a timestamp. The coarse cases draw them from a 100 µs grid, 0
// included, so events often tie on `when` and the FIFO sequence number
// decides, as it does for the guest ticks of the NPB runs; their bodies
// also move one pending handle earlier and another later, one move
// before and one after scheduling their child, so keys sift both ways
// from inside a running event.
//
// The lane cases aim at the engine's 1 ms lane and its lazily re-keyed
// heap slots. Half their delays are exactly 0 or exactly 1 ms, so
// armings and reschedules go into and out of the lane, a lane head ties
// with armings made at its instant, and cancels and moves leave holes at
// and behind the lane head. A creep op
// moves one pending arming later three times, leaving its heap slot
// stale, and half the time runs to a deadline between the slot's key
// and the arming's true one. A burst op arms 24 events 1 ms ahead and
// cancels three in four, so a full lane ring is compacted. Every 500 ops
// PendingEvents must list the reference's live keys in order, and
// half-way PurgeAll must drop as many armings as the reference holds
// live.
func TestDifferentialEngineEquivalence(t *testing.T) {
	for _, c := range []struct {
		seed  uint64
		step  Time // grid of every delay
		moves bool // bodies move pending handles
		lane  bool // lane delays, creeps, descriptor checks and a purge
	}{
		{1, Microsecond, false, false},
		{7, Microsecond, false, false},
		{42, Microsecond, false, false},
		{1234, Microsecond, false, false},
		{3, 100 * Microsecond, true, false},
		{64, 100 * Microsecond, true, false},
		{2026, 100 * Microsecond, true, false},
		{5, 100 * Microsecond, true, true},
		{88, 10 * Microsecond, true, true},
		{4096, Microsecond, false, true},
	} {
		seed, step := c.seed, c.step
		name := Time(seed).String()
		switch {
		case c.lane:
			name += "/lane"
		case c.moves:
			name += "/coarse"
		}
		t.Run(name, func(t *testing.T) {
			const ops = 120_000
			rng := NewRand(seed)

			newEng := NewEngine(seed)
			refEng := &refEngine{}

			var logNew, logRef []fireRec
			var refsNew []EventRef
			var refsRef []*refEvent
			nextID := 0

			// draw returns a delay on the case's grid below limit, or in the
			// lane cases half the time exactly 0 or 1 ms.
			draw := func(limit Time) Time {
				if c.lane && rng.Intn(2) == 0 {
					return Time(rng.Intn(2)) * laneDelay
				}
				return Time(rng.Intn(int(limit/step))) * step
			}

			// moveNew and moveRef shift handle k's deadline by d on their
			// own engine, not before now; a handle no longer pending is
			// left alone by both.
			moveNew := func(k int, d Time) {
				if w := refsNew[k].When(); w != MaxTime {
					newEng.Reschedule(refsNew[k], max(w+d, newEng.Now()))
				}
			}
			moveRef := func(k int, d Time) {
				if ev := refsRef[k]; !ev.cancelled && !ev.fired {
					refsRef[k] = refEng.Reschedule(ev, max(ev.when+d, refEng.now))
				}
			}

			// schedule registers the same logical event on both engines.
			// Every third event's body spawns a child some steps later and
			// cancels a pseudo-random earlier handle, exercising nested
			// scheduling and stale cancels from inside callbacks; in the
			// coarse cases it also moves two earlier handles, one earlier
			// and one later, one before the child and one after it.
			var schedule func(delay Time)
			schedule = func(delay Time) {
				id := nextID
				nextID++
				whenNew := newEng.Now() + delay
				whenRef := refEng.now + delay
				if whenNew != whenRef {
					t.Fatalf("clocks diverged before scheduling id %d: %v vs %v", id, whenNew, whenRef)
				}
				childDelay := Time(uint64(id)%97) * step
				victim := id / 2
				// The first move goes earlier on even ids and later on odd
				// ones; the second goes the other way.
				first, second := id/3, id/5
				shift := Time(1+id%3) * step
				if id%2 == 0 {
					shift = -shift
				}
				refsNew = append(refsNew, newEng.At(whenNew, "d", func() {
					logNew = append(logNew, fireRec{id, newEng.Now()})
					if id%3 == 0 {
						if c.moves {
							moveNew(first, shift)
						}
						newEng.At(newEng.Now()+childDelay, "c", func() {
							logNew = append(logNew, fireRec{-id - 1, newEng.Now()})
						})
						newEng.Cancel(refsNew[victim])
						if c.moves {
							moveNew(second, -shift)
						}
					}
				}))
				refsRef = append(refsRef, refEng.At(whenRef, func() {
					logRef = append(logRef, fireRec{id, refEng.now})
					if id%3 == 0 {
						if c.moves {
							moveRef(first, shift)
						}
						refEng.At(refEng.now+childDelay, func() {
							logRef = append(logRef, fireRec{-id - 1, refEng.now})
						})
						refEng.Cancel(refsRef[victim])
						if c.moves {
							moveRef(second, -shift)
						}
					}
				}))
			}

			// The new engine's child events do not register handles; keep
			// the handle tables aligned by construction (only top-level
			// schedules append to refsNew/refsRef).

			for op := 0; op < ops; op++ {
				if c.lane && op == ops/2 {
					if n, want := newEng.PurgeAll(), refEng.purge(); n != want {
						t.Fatalf("op %d: PurgeAll dropped %d armings, reference had %d live", op, n, want)
					}
				}
				switch r := rng.Intn(100); {
				case c.lane && r < 8 && len(refsNew) > 0:
					// Creep: three later moves of one arming, then maybe a
					// deadline between its stale slot's key and its own.
					k := rng.Intn(len(refsNew))
					w := refsNew[k].When()
					for i := 0; i < 3; i++ {
						moveNew(k, step)
						moveRef(k, step)
					}
					if w != MaxTime && rng.Intn(2) == 0 {
						deadline := max(w+step/2, newEng.Now())
						if err := newEng.RunUntil(deadline); err != nil {
							t.Fatal(err)
						}
						refEng.RunUntil(deadline)
					}
				case c.lane && r < 10:
					// Burst: 24 armings in the 1 ms lane, three in four
					// cancelled at once.
					for i := 0; i < 24; i++ {
						schedule(laneDelay)
					}
					for i := len(refsNew) - 24; i < len(refsNew); i++ {
						if i%4 != 0 {
							newEng.Cancel(refsNew[i])
							refEng.Cancel(refsRef[i])
						}
					}
				case r < 55:
					schedule(draw(2000 * Microsecond))
				case r < 75 && len(refsNew) > 0:
					k := rng.Intn(len(refsNew))
					newEng.Cancel(refsNew[k])
					refEng.Cancel(refsRef[k])
				case r < 90 && len(refsNew) > 0:
					k := rng.Intn(len(refsNew))
					delay := draw(3000 * Microsecond)
					okNew := newEng.Reschedule(refsNew[k], newEng.Now()+delay)
					repl := refEng.Reschedule(refsRef[k], refEng.now+delay)
					if okNew != (repl != nil) {
						t.Fatalf("reschedule liveness diverged at op %d: new=%v ref=%v", op, okNew, repl != nil)
					}
					if repl != nil {
						refsRef[k] = repl
					}
				default:
					d := draw(500 * Microsecond)
					if err := newEng.RunUntil(newEng.Now() + d); err != nil {
						t.Fatal(err)
					}
					refEng.RunUntil(refEng.now + d)
				}
				if live := int(refEng.scheduled - refEng.cancelled - refEng.processed - refEng.purged); newEng.Pending() != live {
					t.Fatalf("op %d: %d events queued, reference has %d live", op, newEng.Pending(), live)
				}
				if c.lane && op%500 == 0 {
					samePending(t, op, newEng, refEng)
				}
			}
			if err := newEng.Run(); err != nil {
				t.Fatal(err)
			}
			refEng.Run()

			if len(logNew) != len(logRef) {
				t.Fatalf("fired %d events, reference fired %d", len(logNew), len(logRef))
			}
			for i := range logNew {
				if logNew[i] != logRef[i] {
					t.Fatalf("firing %d diverged: new=%+v ref=%+v", i, logNew[i], logRef[i])
				}
			}
			if newEng.Now() != refEng.now {
				t.Fatalf("final clocks: new=%v ref=%v", newEng.Now(), refEng.now)
			}
			if newEng.Scheduled != refEng.scheduled ||
				newEng.Cancelled != refEng.cancelled ||
				newEng.Processed != refEng.processed {
				t.Fatalf("accounting diverged: new=%d/%d/%d ref=%d/%d/%d",
					newEng.Scheduled, newEng.Cancelled, newEng.Processed,
					refEng.scheduled, refEng.cancelled, refEng.processed)
			}
			if newEng.Pending() != 0 {
				t.Fatalf("events left pending after Run: %d", newEng.Pending())
			}
			if newEng.Scheduled != newEng.Cancelled+newEng.Processed+refEng.purged {
				t.Fatalf("drop accounting does not balance: %d != %d + %d + %d purged",
					newEng.Scheduled, newEng.Cancelled, newEng.Processed, refEng.purged)
			}
		})
	}
}

// TestDifferentialTimerEquivalence drives the rewritten Timer
// (in-place reschedule, pooled events) against hand-rolled seed-style
// timers on the reference engine under a randomized rearm/stop workload.
// The lane cases drive three timers and draw half their delays as
// exactly 0 or 1 ms, so the timers move into and out of the 1 ms lane
// and leave holes behind. Half their runs end exactly 1 ms before
// another timer's deadline, so a 1 ms rearm after the run ties with an
// arming made earlier, which must fire first.
func TestDifferentialTimerEquivalence(t *testing.T) {
	for _, c := range []struct {
		seed   uint64
		timers int
		lane   bool
	}{{3, 1, false}, {99, 1, false}, {17, 3, true}, {512, 3, true}} {
		c := c
		name := Time(c.seed).String()
		if c.lane {
			name += "/lane"
		}
		t.Run(name, func(t *testing.T) {
			const ops = 30_000
			rng := NewRand(c.seed)

			newEng := NewEngine(c.seed)
			refEng := &refEngine{}

			// delay draws a rearm delay below limit µs. The lane cases
			// draw half the time exactly 0 or 1 ms and otherwise below limit
			// steps of 10 µs, so an arming made earlier with a longer delay
			// can tie with a lane arming and must fire first.
			delay := func(limit int) Time {
				if !c.lane {
					return Time(rng.Intn(limit)) * Microsecond
				}
				if rng.Intn(2) == 0 {
					return Time(rng.Intn(2)) * laneDelay
				}
				return Time(rng.Intn(limit)) * 10 * Microsecond
			}

			type firing struct {
				at Time
				id int
			}
			var logNew, logRef []firing
			tms := make([]*Timer, c.timers)
			refEvs := make([]*refEvent, c.timers)
			refFires := make([]func(), c.timers)
			for i := range tms {
				i := i
				tms[i] = NewTimer(newEng, "t", func() { logNew = append(logNew, firing{newEng.Now(), i}) })
				refFires[i] = func() { refEvs[i] = nil; logRef = append(logRef, firing{refEng.now, i}) }
			}

			for op := 0; op < ops; op++ {
				i := 0
				if c.timers > 1 {
					i = rng.Intn(c.timers)
				}
				tm := tms[i]
				switch r := rng.Intn(10); {
				case r < 6:
					d := delay(300)
					tm.Reset(d)
					if refEvs[i] != nil {
						refEng.Cancel(refEvs[i])
					}
					refEvs[i] = refEng.At(refEng.now+d, refFires[i])
				case r < 7:
					tm.Stop()
					if refEvs[i] != nil {
						refEng.Cancel(refEvs[i])
						refEvs[i] = nil
					}
				default:
					deadline := newEng.Now() + delay(200)
					if w := tm.Deadline(); c.lane && rng.Intn(2) == 0 && w != MaxTime && w-laneDelay >= newEng.Now() {
						deadline = w - laneDelay
					}
					if err := newEng.RunUntil(deadline); err != nil {
						t.Fatal(err)
					}
					refEng.RunUntil(deadline)
					for j := range tms {
						if tms[j].Armed() != (refEvs[j] != nil) {
							t.Fatalf("armed state of timer %d diverged at op %d", j, op)
						}
					}
				}
			}
			if err := newEng.Run(); err != nil {
				t.Fatal(err)
			}
			refEng.Run()

			if len(logNew) != len(logRef) {
				t.Fatalf("fired %d, reference fired %d", len(logNew), len(logRef))
			}
			for i := range logNew {
				if logNew[i] != logRef[i] {
					t.Fatalf("firing %d diverged: %v vs %v", i, logNew[i], logRef[i])
				}
			}
			if newEng.Scheduled != refEng.scheduled ||
				newEng.Cancelled != refEng.cancelled ||
				newEng.Processed != refEng.processed {
				t.Fatalf("accounting diverged: new=%d/%d/%d ref=%d/%d/%d",
					newEng.Scheduled, newEng.Cancelled, newEng.Processed,
					refEng.scheduled, refEng.cancelled, refEng.processed)
			}
		})
	}
}

// TestDifferentialSeriesEquivalence drives Series against the n
// individual At calls it stands for on the reference engine. Other
// events are forced onto the series' exact instants — scheduled before
// and after the series call, and from inside series bodies — and
// randomly cancelled and rescheduled, so every tie-break between a
// series element and an ordinary event is exercised. After every
// operation the two engines must agree on the (time, label) firing
// sequence and on Scheduled/Cancelled/Processed, and the new engine's
// queue must hold exactly one entry per unfinished series beside the
// other events.
func TestDifferentialSeriesEquivalence(t *testing.T) {
	type firing struct {
		at    Time
		label string
	}
	for _, seed := range []uint64{5, 11, 2024} {
		seed := seed
		t.Run(Time(seed).String(), func(t *testing.T) {
			const ops = 20_000
			rng := NewRand(seed)
			newEng := NewEngine(seed)
			refEng := &refEngine{}

			var logNew, logRef []firing
			var refsNew []EventRef
			var refsRef []*refEvent
			var instants []Time // every series instant so far, as tie targets
			var remaining []int // unfired elements per series
			seriesLeft := 0     // sum of remaining

			// other schedules one ordinary event on both engines.
			other := func(when Time, label string) {
				refsNew = append(refsNew, newEng.At(when, label, func() {
					logNew = append(logNew, firing{newEng.Now(), label})
				}))
				refsRef = append(refsRef, refEng.At(when, func() {
					logRef = append(logRef, firing{refEng.now, label})
				}))
			}
			// target returns now+d, or half the time a series instant
			// still ahead, so that the event ties with a series element.
			target := func(d Time) Time {
				if len(instants) > 0 && rng.Intn(2) == 0 {
					if w := instants[rng.Intn(len(instants))]; w >= newEng.Now() {
						return w
					}
				}
				return newEng.Now() + d
			}
			// series schedules one series on the new engine and its n At
			// calls on the reference. Element i's body ties an echo onto
			// element i+1's instant (it must fire after that element,
			// whose sequence number was reserved first), and every fourth
			// body cancels an earlier ordinary event.
			series := func(id int) {
				n := 1 + rng.Intn(150)
				whens := make([]Time, n)
				at := newEng.Now() + Time(rng.Intn(40))*Microsecond
				for i := range whens {
					if rng.Intn(3) != 0 { // else repeat the instant: self-ties
						at += Time(rng.Intn(25)) * Microsecond
					}
					whens[i] = at
				}
				for j := 0; j < 4; j++ {
					other(whens[rng.Intn(n)], "pre")
				}
				label := fmt.Sprintf("s%d", id)
				victims := make([]int, n)
				for i := range victims {
					victims[i] = -1
					if i%4 == 3 && len(refsNew) > 0 {
						victims[i] = rng.Intn(len(refsNew))
					}
				}
				// Each engine's body touches only its own engine; echoes
				// keep no handles, so the handle tables stay aligned.
				newEng.Series(whens, label, func() {
					i := n - remaining[id] // elements fire in index order
					logNew = append(logNew, firing{newEng.Now(), fmt.Sprintf("%s/%d", label, i)})
					remaining[id]--
					seriesLeft--
					if i+1 < n {
						newEng.At(whens[i+1], "echo", func() {
							logNew = append(logNew, firing{newEng.Now(), "echo"})
						})
					}
					if victims[i] >= 0 {
						newEng.Cancel(refsNew[victims[i]])
					}
				})
				for i, w := range whens {
					i := i
					refEng.At(w, func() {
						logRef = append(logRef, firing{refEng.now, fmt.Sprintf("%s/%d", label, i)})
						if i+1 < n {
							refEng.At(whens[i+1], func() {
								logRef = append(logRef, firing{refEng.now, "echo"})
							})
						}
						if victims[i] >= 0 {
							refEng.Cancel(refsRef[victims[i]])
						}
					})
				}
				remaining = append(remaining, n)
				seriesLeft += n
				for j := 0; j < 4; j++ {
					other(whens[rng.Intn(n)], "post")
				}
				instants = append(instants, whens...)
			}

			checked := 0
			check := func(op int) {
				t.Helper()
				if len(logNew) != len(logRef) {
					t.Fatalf("op %d: fired %d events, reference fired %d", op, len(logNew), len(logRef))
				}
				for ; checked < len(logNew); checked++ {
					if logNew[checked] != logRef[checked] {
						t.Fatalf("op %d: firing %d diverged: new=%+v ref=%+v", op, checked, logNew[checked], logRef[checked])
					}
				}
				if newEng.Scheduled != refEng.scheduled ||
					newEng.Cancelled != refEng.cancelled ||
					newEng.Processed != refEng.processed {
					t.Fatalf("op %d: accounting diverged: new=%d/%d/%d ref=%d/%d/%d", op,
						newEng.Scheduled, newEng.Cancelled, newEng.Processed,
						refEng.scheduled, refEng.cancelled, refEng.processed)
				}
				active := 0
				for _, r := range remaining {
					if r > 0 {
						active++
					}
				}
				liveOthers := int(refEng.scheduled-refEng.cancelled-refEng.processed) - seriesLeft
				if queued := newEng.Pending(); queued != liveOthers+active {
					t.Fatalf("op %d: %d entries queued, want %d other live events + %d unfinished series",
						op, queued, liveOthers, active)
				}
			}

			nSeries := 0
			for op := 0; op < ops; op++ {
				switch r := rng.Intn(100); {
				case r < 3:
					series(nSeries)
					nSeries++
				case r < 40:
					other(target(Time(rng.Intn(2000))*Microsecond), "o")
				case r < 55 && len(refsNew) > 0:
					k := rng.Intn(len(refsNew))
					newEng.Cancel(refsNew[k])
					refEng.Cancel(refsRef[k])
				case r < 70 && len(refsNew) > 0:
					k := rng.Intn(len(refsNew))
					when := target(Time(rng.Intn(1500)) * Microsecond)
					okNew := newEng.Reschedule(refsNew[k], when)
					repl := refEng.Reschedule(refsRef[k], when)
					if okNew != (repl != nil) {
						t.Fatalf("op %d: reschedule liveness diverged: new=%v ref=%v", op, okNew, repl != nil)
					}
					if repl != nil {
						refsRef[k] = repl
					}
				default:
					// Advance, half the time exactly onto a series instant
					// so RunUntil's inclusive deadline splits tied groups.
					deadline := target(Time(rng.Intn(300)) * Microsecond)
					if err := newEng.RunUntil(deadline); err != nil {
						t.Fatal(err)
					}
					refEng.RunUntil(deadline)
				}
				check(op)
			}
			if err := newEng.Run(); err != nil {
				t.Fatal(err)
			}
			refEng.Run()
			check(ops)
			if nSeries == 0 || seriesLeft != 0 || newEng.Pending() != 0 {
				t.Fatalf("%d series, %d elements left, %d entries pending after Run", nSeries, seriesLeft, newEng.Pending())
			}
		})
	}
}
