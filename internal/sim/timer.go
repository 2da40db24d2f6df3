package sim

// Timer is a restartable one-shot timer layered over engine events. It is
// used for the many "program the next deadline" patterns in the
// hypervisor and guest kernels (slice expiry, tick, accounting period).
// A periodic timer ends its own body with Reset(period), so each firing
// arms the next one period later, after whatever the body scheduled.
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
