package sim

import "testing"

// The microbenchmarks below are the acceptance bar for the event-core
// rewrite (see docs/performance.md): schedule+fire throughput, timer
// rearm cost, and cancel-heavy mixed workloads. Run them with
// `go test -run='^$' -bench=. -benchmem ./internal/sim/`; CI runs each
// once as a smoke test.

// BenchmarkSchedule measures one schedule+fire cycle on an otherwise
// empty queue: the hot path of every engine event.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine(1)
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Microsecond, "bench", nop)
		if !e.step() {
			b.Fatal("queue empty")
		}
	}
}

// BenchmarkScheduleDepth measures schedule+fire with 4096 far-future
// events resident, exercising sift depth and cache behaviour.
func BenchmarkScheduleDepth(b *testing.B) {
	e := NewEngine(1)
	nop := func() {}
	for i := 0; i < 4096; i++ {
		e.After(Second+Time(i)*Millisecond, "bg", nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(0, "bench", nop)
		if !e.step() {
			b.Fatal("queue empty")
		}
	}
}

// BenchmarkTimerReset measures rearming a pending timer — the dominant
// timer operation in the hypervisor (slice reprogramming on every
// dispatch). Steady state must not allocate.
func BenchmarkTimerReset(b *testing.B) {
	e := NewEngine(1)
	tm := NewTimer(e, "t", func() {})
	tm.Reset(Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(Millisecond)
	}
}

// BenchmarkTimerResetFire measures the full rearm+expire cycle: Reset,
// run to the deadline, repeat. Steady state must not allocate.
func BenchmarkTimerResetFire(b *testing.B) {
	e := NewEngine(1)
	fires := 0
	tm := NewTimer(e, "t", func() { fires++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(Microsecond)
		if err := e.RunUntil(e.Now() + Microsecond); err != nil {
			b.Fatal(err)
		}
	}
	if fires != b.N {
		b.Fatalf("fires = %d, want %d", fires, b.N)
	}
}

// BenchmarkTicker measures steady periodic ticking.
func BenchmarkTicker(b *testing.B) {
	e := NewEngine(1)
	n := 0
	tk := NewTicker(e, "tick", Microsecond, func() { n++ })
	tk.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.RunUntil(e.Now() + Microsecond); err != nil {
			b.Fatal(err)
		}
	}
	if n < b.N {
		b.Fatalf("ticks = %d, want >= %d", n, b.N)
	}
}

// BenchmarkMixedCancel measures a cancel-heavy workload: batches of
// scheduled events where half are cancelled before the batch drains,
// the pattern produced by timer-rearm storms and superseded wakeups.
func BenchmarkMixedCancel(b *testing.B) {
	const batch = 512
	e := NewEngine(1)
	nop := func() {}
	refs := make([]EventRef, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refs = append(refs, e.After(Time(i%257)*Microsecond, "bench", nop))
		if len(refs) == batch {
			for j := 0; j < batch; j += 2 {
				e.Cancel(refs[j])
			}
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			refs = refs[:0]
		}
	}
	b.StopTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
