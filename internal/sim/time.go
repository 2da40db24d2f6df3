// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock with nanosecond resolution, a cancellable event heap,
// and a seeded pseudo-random number generator. Every component of the
// vScale reproduction (hypervisor, guest kernels, workloads) runs on top
// of this engine, so simulations are exactly reproducible for a given
// seed and never read the wall clock.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It intentionally mirrors time.Duration arithmetic but is a
// distinct type so that virtual and wall-clock quantities cannot be mixed
// by accident.
type Time int64

// Common durations, expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time. It is used as the
// "never" sentinel for deadlines.
const MaxTime Time = 1<<63 - 1

// Add returns t shifted by a duration d (also in virtual nanoseconds).
func (t Time) Add(d Time) Time { return t + d }

// Sub returns the duration t - u.
func (t Time) Sub(u Time) Time { return t - u }

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts t to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds converts t to floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Duration converts t to a time.Duration for formatting convenience.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String renders t with time.Duration formatting (e.g. "30ms").
func (t Time) String() string {
	if t == MaxTime {
		return "never"
	}
	return time.Duration(t).String()
}

// FromSeconds converts floating-point seconds to virtual time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMillis converts floating-point milliseconds to virtual time.
func FromMillis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// FromMicros converts floating-point microseconds to virtual time.
func FromMicros(us float64) Time { return Time(us * float64(Microsecond)) }

// CheckRate reports whether perSec, in events per virtual second, is a
// rate the simulator can turn into inter-event gaps: finite, and either
// zero (no events) or with a mean gap 1/perSec of at least one
// nanosecond and below MaxTime. Load generators check their rates where
// they enter, so a bad flag or trace value fails with an error instead
// of a panic mid-run.
func CheckRate(perSec float64) error {
	switch {
	case math.IsNaN(perSec) || math.IsInf(perSec, 0):
		return fmt.Errorf("non-finite rate %g/s", perSec)
	case perSec < 0:
		return fmt.Errorf("negative rate %g/s", perSec)
	case perSec == 0:
		return nil
	}
	// float64(MaxTime) rounds up to 2^63, the first gap that no longer
	// converts to a Time.
	if gap := float64(Second) / perSec; gap < 1 || gap >= float64(MaxTime) {
		return fmt.Errorf("rate %g/s out of range: mean gap %g ns not in [1 ns, %d ns]", perSec, gap, int64(MaxTime))
	}
	return nil
}

// CheckSpan reports whether v, in the given unit (Second, Millisecond,
// ...), is a span the simulator can schedule: finite, at least one
// nanosecond and below MaxTime. Command-line durations are checked
// where they enter, so a bad flag fails with an error instead of
// converting to a zero or negative virtual time.
func CheckSpan(v float64, unit Time) error {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return fmt.Errorf("non-finite span %g", v)
	case v <= 0:
		return fmt.Errorf("non-positive span %g", v)
	}
	if ns := v * float64(unit); ns < 1 || ns >= float64(MaxTime) {
		return fmt.Errorf("span %g out of range: %g ns not in [1 ns, %d ns]", v, ns, int64(MaxTime))
	}
	return nil
}

// checkNonNegative panics if d is negative; scheduling into the past is
// always a programming error in the simulation.
func checkNonNegative(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative duration %d", int64(d)))
	}
}
