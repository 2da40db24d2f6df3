package xen

import (
	"testing"

	"vscale/internal/sim"
)

// TestNotifyDispatchAllocs pins the runqueue and pending-port FIFOs to
// their backing arrays: once warmed, notifying a queued vCPU, switching
// to it and flushing its pending port allocates nothing. A pop that
// sheds capacity makes the next push reallocate, which is what it
// catches.
func TestNotifyDispatchAllocs(t *testing.T) {
	eng, pool := setup(t, 1, false)
	a, ga := addHogDomain(eng, pool, "a", 256, 1)
	b, gb := addHogDomain(eng, pool, "b", 256, 1)
	p := pool.PCPUs()[0]
	// One cycle: the queued vCPU gets an event-channel notification
	// (queued as pending), the running one yields, and the dispatch
	// delivers the pending port to the newly running vCPU.
	cycle := func() {
		for i := 0; i < 4; i++ {
			next := a
			if p.Current() == a.VCPU(0) {
				next = b
			}
			pool.Notify(next.IPIPort(0))
			pool.Yield(p.Current())
			if p.Current() != next.VCPU(0) {
				t.Fatalf("yield ran %v, want the notified vCPU", p.Current().dom.Name)
			}
		}
	}
	cycle()
	before := ga.delivered[0] + gb.delivered[0]
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Notify → dispatch → flushPending allocated %v times per cycle, want 0", n)
	}
	if got := ga.delivered[0] + gb.delivered[0] - before; got != 4*101 {
		t.Fatalf("%d events delivered, want %d", got, 4*101)
	}
}

// TestVScaleTickAllocs pins Algorithm 1's per-tick input and output to
// buffers the pool keeps: once warmed, a vScale tick over three domains
// allocates nothing.
func TestVScaleTickAllocs(t *testing.T) {
	eng, pool := setup(t, 4, true)
	addHogDomain(eng, pool, "a", 256, 2)
	addHogDomain(eng, pool, "b", 512, 4)
	addHogDomain(eng, pool, "c", 256, 1)
	pool.Start()
	if err := eng.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	ticks := pool.VScaleTicks
	if n := testing.AllocsPerRun(100, pool.vscaleTick); n != 0 {
		t.Fatalf("vScale tick allocated %v times, want 0", n)
	}
	if pool.VScaleTicks-ticks != 101 {
		t.Fatalf("%d ticks ran, want 101", pool.VScaleTicks-ticks)
	}
}
