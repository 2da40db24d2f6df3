package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.After(30*Millisecond, "c", func() { got = append(got, 3) })
	e.After(10*Millisecond, "a", func() { got = append(got, 1) })
	e.After(20*Millisecond, "b", func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*Millisecond {
		t.Fatalf("Now = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Millisecond, "tie", func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events ran out of order: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(Millisecond, "x", func() { fired = true })
	e.Cancel(ev)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and cancelling the zero ref must be no-ops.
	e.Cancel(ev)
	e.Cancel(EventRef{})
}

func TestEventRefStaleAfterFire(t *testing.T) {
	e := NewEngine(1)
	ev := e.After(Millisecond, "x", func() {})
	if !ev.Pending() || ev.When() != Millisecond || ev.Label() != "x" {
		t.Fatalf("pending ref: Pending=%v When=%v Label=%q", ev.Pending(), ev.When(), ev.Label())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ev.Pending() {
		t.Fatal("fired ref still pending")
	}
	if ev.When() != MaxTime || ev.Label() != "" {
		t.Fatalf("stale ref: When=%v Label=%q", ev.When(), ev.Label())
	}
	// A stale ref must not cancel whatever recycled event now occupies
	// the slot.
	fired := false
	e.After(Millisecond, "next", func() { fired = true })
	e.Cancel(ev)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("stale cancel killed a recycled event")
	}
	if e.Cancelled != 0 {
		t.Fatalf("stale cancels counted: Cancelled = %d", e.Cancelled)
	}
}

func TestReschedule(t *testing.T) {
	e := NewEngine(1)
	var got []string
	ev := e.After(Millisecond, "moved", func() { got = append(got, "moved") })
	e.After(2*Millisecond, "fixed", func() { got = append(got, "fixed") })
	// Move the first event past the second; it must keep its handle and
	// fire in the new order.
	if !e.Reschedule(ev, 3*Millisecond) {
		t.Fatal("reschedule of pending event failed")
	}
	if !ev.Pending() || ev.When() != 3*Millisecond {
		t.Fatalf("ref after reschedule: Pending=%v When=%v", ev.Pending(), ev.When())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "fixed" || got[1] != "moved" {
		t.Fatalf("order = %v, want [fixed moved]", got)
	}
	// Stale and cancelled refs refuse to reschedule.
	if e.Reschedule(ev, 10*Millisecond) {
		t.Fatal("rescheduled a fired event")
	}
	victim := e.After(Millisecond, "v", func() { t.Error("cancelled event fired") })
	e.Cancel(victim)
	if e.Reschedule(victim, 2*Millisecond) {
		t.Fatal("rescheduled a cancelled event")
	}
	if e.Reschedule(EventRef{}, 2*Millisecond) {
		t.Fatal("rescheduled the zero ref")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRescheduleTieBreak: a reschedule takes a fresh FIFO sequence
// number, exactly as cancel-and-repush would, so a rescheduled event
// fires after events already queued for the same instant.
func TestRescheduleTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []string
	ev := e.After(Millisecond, "early", func() { got = append(got, "early") })
	e.After(5*Millisecond, "same", func() { got = append(got, "same") })
	e.Reschedule(ev, 5*Millisecond)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "same" || got[1] != "early" {
		t.Fatalf("order = %v, want [same early]", got)
	}
}

// TestSlotOrder checks the heap's branch-free slot compare against the
// plain (when, seq) comparison at the edges of both fields, where a
// dropped borrow or a swapped field order shows.
func TestSlotOrder(t *testing.T) {
	var keys []slot
	for _, when := range []Time{0, 1, MaxTime - 1, MaxTime} {
		for _, seq := range []uint64{0, 1, math.MaxUint64} {
			keys = append(keys, slot{when: when, seq: seq})
		}
	}
	for _, x := range keys {
		for _, y := range keys {
			want := x.when < y.when || x.when == y.when && x.seq < y.seq
			if got := less(x, y) == 1; got != want {
				t.Errorf("less((%d, %d), (%d, %d)) = %v, want %v", x.when, x.seq, y.when, y.seq, got, want)
			}
		}
	}
}

// TestEventPoolRecycles: the engine reuses event structs, so a long
// schedule/fire chain must not grow the pool beyond its concurrency
// high-water mark.
func TestEventPoolRecycles(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			e.After(Microsecond, "tick", tick)
		}
	}
	e.After(0, "start", tick)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("n = %d", n)
	}
	if got := len(e.free); got > 2 {
		t.Fatalf("pool holds %d events after a depth-1 chain, want <= 2", got)
	}
}

// TestCancelRemovesInPlace: Cancel takes its event out of the queue and
// recycles it at once, so after every cancel Pending counts exactly the
// live armings and the free list holds one more event, while counters
// and firing stay intact.
func TestCancelRemovesInPlace(t *testing.T) {
	e := NewEngine(1)
	var refs []EventRef
	fired := 0
	for i := 0; i < 1000; i++ {
		refs = append(refs, e.After(Time(i+1)*Millisecond, "e", func() { fired++ }))
	}
	live := len(refs)
	for i, r := range refs {
		if i%3 == 0 {
			continue
		}
		free := len(e.free)
		e.Cancel(r)
		live--
		if e.Pending() != live {
			t.Fatalf("after cancel %d: Pending = %d, want %d live", i, e.Pending(), live)
		}
		if len(e.free) != free+1 {
			t.Fatalf("after cancel %d: free list %d -> %d, want one recycled event", i, free, len(e.free))
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 334 {
		t.Fatalf("fired = %d, want 334", fired)
	}
	if e.Scheduled != 1000 || e.Cancelled != 666 || e.Processed != 334 {
		t.Fatalf("counters = %d/%d/%d", e.Scheduled, e.Cancelled, e.Processed)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []Time{Millisecond, 2 * Millisecond, 5 * Millisecond} {
		d := d
		e.After(d, "t", func() { fired = append(fired, d) })
	}
	if err := e.RunUntil(3 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before deadline, want 2", len(fired))
	}
	if e.Now() != 3*Millisecond {
		t.Fatalf("clock = %v, want exactly the deadline", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("remaining event lost: fired=%v", fired)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.After(Microsecond, "rec", rec)
		}
	}
	e.After(0, "start", rec)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99*Microsecond {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineLimit(t *testing.T) {
	e := NewEngine(1)
	e.Limit = 10
	var loop func()
	loop = func() { e.After(Millisecond, "loop", loop) }
	e.After(0, "start", loop)
	if err := e.Run(); err == nil {
		t.Fatal("expected limit error")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var loop func()
	loop = func() {
		n++
		if n == 5 {
			e.Stop()
		}
		e.After(Millisecond, "loop", loop)
	}
	e.After(0, "start", loop)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("n = %d, want 5 (Stop should halt the loop)", n)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(Millisecond, "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(0, "past", func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimerResetAndStop(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	tm := NewTimer(e, "t", func() { fires++ })
	tm.Reset(2 * Millisecond)
	tm.Reset(5 * Millisecond) // supersedes the first arm
	if !tm.Armed() || tm.Deadline() != 5*Millisecond {
		t.Fatalf("deadline = %v", tm.Deadline())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatalf("fires = %d, want 1 (Reset must supersede)", fires)
	}
	tm.Reset(Millisecond)
	tm.Stop()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatal("stopped timer fired")
	}
	if tm.Deadline() != MaxTime {
		t.Fatal("stopped timer should report MaxTime deadline")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds nearly identical: %d collisions", same)
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(7)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean of uniforms = %f", mean)
	}
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Fatalf("bucket %d has %d of %d", i, b, n)
		}
	}
}

func TestRandDurationBounds(t *testing.T) {
	r := NewRand(9)
	f := func(a, b uint32) bool {
		lo, hi := Time(a%1000), Time(a%1000)+Time(b%1000)
		d := r.Duration(lo, hi)
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandNormalMoments(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean, variance := sum/n, sq/n
	if mean < -0.02 || mean > 0.02 {
		t.Fatalf("normal mean = %f", mean)
	}
	if variance < 0.97 || variance > 1.03 {
		t.Fatalf("normal variance = %f", variance)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if m := sum / n; m < 0.98 || m > 1.02 {
		t.Fatalf("exponential mean = %f", m)
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(21)
	f := r.Fork()
	// The fork must be decoupled: drawing from one must not change the
	// other's future output beyond the fork point.
	want := f.Uint64()
	r2 := NewRand(21)
	f2 := r2.Fork()
	for i := 0; i < 100; i++ {
		r2.Uint64()
	}
	if f2.Uint64() != want {
		t.Fatal("fork stream not independent of parent draws")
	}
}

func TestTimeConversions(t *testing.T) {
	if FromMillis(30) != 30*Millisecond {
		t.Fatal("FromMillis")
	}
	if FromMicros(0.5) != 500*Nanosecond {
		t.Fatal("FromMicros")
	}
	if FromSeconds(2).Seconds() != 2 {
		t.Fatal("Seconds roundtrip")
	}
	if (30 * Millisecond).String() != "30ms" {
		t.Fatalf("String = %q", (30 * Millisecond).String())
	}
	if MaxTime.String() != "never" {
		t.Fatal("MaxTime should render as never")
	}
}

func TestCheckRate(t *testing.T) {
	for _, ok := range []float64{0, 1.1e-10, 1, 6500, 1e9} {
		if err := CheckRate(ok); err != nil {
			t.Fatalf("CheckRate(%g) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 1.5e9, 1e-10, 1e-300, math.SmallestNonzeroFloat64} {
		if err := CheckRate(bad); err == nil {
			t.Fatalf("CheckRate(%g) = nil, want error", bad)
		}
	}
}

func TestCheckSpan(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		unit Time
		ok   bool
	}{
		{1, Second, true},
		{0.001, Second, true},
		{1e-9, Second, true},
		{50, Millisecond, true},
		{1, Nanosecond, true},
		{9.2e9, Second, true},
		{0, Second, false},
		{-1, Second, false},
		{-5, Millisecond, false},
		{math.NaN(), Second, false},
		{math.Inf(1), Second, false},
		{math.Inf(-1), Millisecond, false},
		{1e300, Second, false},
		{9.3e9, Second, false},
		{1e-10, Second, false},
		{0.5, Nanosecond, false},
		{math.SmallestNonzeroFloat64, Second, false},
	} {
		err := CheckSpan(tc.v, tc.unit)
		if (err == nil) != tc.ok {
			t.Errorf("CheckSpan(%g, %v) = %v, want ok=%v", tc.v, tc.unit, err, tc.ok)
		}
		if err == nil && FromSeconds(tc.v*tc.unit.Seconds()) <= 0 {
			t.Errorf("CheckSpan(%g, %v) accepted a span that converts to %v", tc.v, tc.unit, FromSeconds(tc.v*tc.unit.Seconds()))
		}
	}
}

// TestExpDurationSaturates checks that a draw past MaxTime saturates
// there: it must not wrap into a tiny (floored) or negative duration.
func TestExpDurationSaturates(t *testing.T) {
	r := NewRand(3)
	saturated := 0
	for i := 0; i < 1000; i++ {
		d := r.ExpDuration(MaxTime - 1)
		if d < Millisecond {
			t.Fatalf("ExpDuration(MaxTime-1) = %d", int64(d))
		}
		if d == MaxTime {
			saturated++
		}
	}
	if saturated == 0 {
		t.Fatal("no draw past MaxTime in 1000: the test no longer exercises saturation")
	}
}

// TestSeriesPendingDescriptors checks that checkpoint descriptors and
// PurgeAll see every unfired series element, not just the queued one.
func TestSeriesPendingDescriptors(t *testing.T) {
	e := NewEngine(1)
	e.At(15, "x", func() {})
	fired := 0
	e.Series([]Time{10, 20, 20, 30}, "s", func() { fired++ })
	if e.Pending() != 2 || e.Scheduled != 5 {
		t.Fatalf("Pending = %d, Scheduled = %d; want 2 queued, 5 booked", e.Pending(), e.Scheduled)
	}
	if err := e.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("fired %d elements by t=20, want 3", fired)
	}
	want := []PendingEvent{{When: 30, Seq: 4, Label: "s"}}
	if got := e.PendingEvents(); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("PendingEvents = %+v, want %+v", got, want)
	}
	e.Series([]Time{25, 40}, "t", func() {})
	if got := e.PendingEvents(); len(got) != 3 || got[0].Label != "t" || got[1].Label != "s" || got[2].Seq != 6 {
		t.Fatalf("PendingEvents = %+v, want t@25, s@30, t@40", got)
	}
	if n := e.PurgeAll(); n != 3 || e.Pending() != 0 {
		t.Fatalf("PurgeAll dropped %d live events, %d left queued; want 3 and 0", n, e.Pending())
	}
}

func TestSeriesRejectsDisorder(t *testing.T) {
	for name, whens := range map[string][]Time{
		"decreasing": {10, 5},
		"past":       {-1, 5},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			NewEngine(1).Series(whens, "s", func() {})
		})
	}
	e := NewEngine(1)
	e.Series(nil, "empty", func() { t.Fatal("empty series fired") })
	if e.Scheduled != 0 || e.Pending() != 0 {
		t.Fatal("empty series booked events")
	}
}

// TestLaneKeepsCapacity: rearms that leave holes in a lane without the
// clock moving, which the head never reaches, do not grow its ring. Two
// timers rearmed 1 ms ahead in turn each leave a hole, and a full ring
// of holes is compacted in place. Every compaction re-indexes the live
// entries, so the timers still cancel, move and fire in order.
func TestLaneKeepsCapacity(t *testing.T) {
	e := NewEngine(1)
	var got []string
	a := NewTimer(e, "a", func() { got = append(got, "a") })
	b := NewTimer(e, "b", func() { got = append(got, "b") })
	c := NewTimer(e, "c", func() { got = append(got, "c") })
	c.Reset(Millisecond)
	for i := 0; i < 10_000; i++ {
		a.Reset(Millisecond)
		b.Reset(Millisecond)
	}
	l := &e.lane
	if len(l.buf) != 16 || l.n != 3 || e.Pending() != 3 {
		t.Fatalf("lane ring of %d slots holds %d entries (%d pending), want 16 slots and 3", len(l.buf), l.n, e.Pending())
	}
	c.Reset(Millisecond) // c was armed first: after this it fires last
	a.Stop()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[b c]" {
		t.Fatalf("fired %v, want [b c]", got)
	}
	if e.Scheduled != e.Cancelled+e.Processed || e.Processed != 2 {
		t.Fatalf("counters %d/%d/%d do not balance", e.Scheduled, e.Cancelled, e.Processed)
	}
}
