package sim

// Timer is a restartable one-shot timer layered over engine events. It is
// used for the many "program the next deadline" patterns in the
// hypervisor and guest kernels (slice expiry, tick, accounting period).
//
// The timer schedules the one fn it was built with as the event body
// and rearms its pending event in place via Engine.Reschedule, so
// steady-state Reset traffic performs no allocation.
type Timer struct {
	eng   *Engine
	ev    EventRef
	label string
	fn    EventFunc
}

// NewTimer creates a stopped timer that runs fn when it fires. By then
// the fired event has been recycled, so t.ev is already stale (Armed
// reports false) and fn may rearm freely.
func NewTimer(eng *Engine, label string, fn EventFunc) *Timer {
	return &Timer{eng: eng, label: label, fn: fn}
}

// Reset (re)arms the timer to fire d from now, superseding any pending
// expiry.
func (t *Timer) Reset(d Time) {
	checkNonNegative(d)
	t.ResetAt(t.eng.Now() + d)
}

// ResetAt (re)arms the timer to fire at absolute time when. A pending
// expiry is moved in place; otherwise a pooled event is scheduled.
func (t *Timer) ResetAt(when Time) {
	if t.eng.Reschedule(t.ev, when) {
		return
	}
	t.ev = t.eng.At(when, t.label, t.fn)
}

// Stop cancels a pending expiry, if any.
func (t *Timer) Stop() {
	t.eng.Cancel(t.ev)
	t.ev = EventRef{}
}

// Armed reports whether the timer has a pending expiry.
func (t *Timer) Armed() bool { return t.ev.Pending() }

// Deadline returns the pending expiry time, or MaxTime if stopped.
func (t *Timer) Deadline() Time { return t.ev.When() }

// Ticker fires fn every period until stopped. The first firing is one
// period from Start. Like Timer it reuses one callback closure and a
// pooled event, so steady ticking is allocation-free.
type Ticker struct {
	eng     *Engine
	ev      EventRef
	label   string
	period  Time
	fn      EventFunc
	stopped bool
	cb      EventFunc // reusable engine callback, built once
}

// NewTicker creates a stopped ticker.
func NewTicker(eng *Engine, label string, period Time, fn EventFunc) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{eng: eng, label: label, period: period, fn: fn, stopped: true}
	t.cb = func() {
		t.fn()
		// fn may have stopped (or restarted) the ticker; only rearm if it
		// is still running and nothing else armed it.
		if !t.stopped && !t.ev.Pending() {
			t.arm()
		}
	}
	return t
}

// Start arms the ticker. Starting a running ticker re-phases it.
func (t *Ticker) Start() {
	t.stopped = false
	t.arm()
}

func (t *Ticker) arm() {
	when := t.eng.Now() + t.period
	if t.eng.Reschedule(t.ev, when) {
		return
	}
	t.ev = t.eng.At(when, t.label, t.cb)
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.eng.Cancel(t.ev)
	t.ev = EventRef{}
}

// Period returns the tick period.
func (t *Ticker) Period() Time { return t.period }
