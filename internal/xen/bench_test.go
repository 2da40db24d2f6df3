package xen

import (
	"fmt"
	"testing"

	"vscale/internal/sim"
)

// BenchmarkCreditDispatch measures the credit scheduler on its own: four
// 2-vCPU hog domains share a 4-pCPU pool (2:1), so every pCPU
// time-slices two vCPUs and the tick and accounting timers keep moving
// credit between them. Each op advances the simulation by one 30 ms
// accounting period: three ticks, one acct, and the slice switches and
// steals around them. The ns/dispatch metric divides the time by the
// pCPUs' context switches (PCPU.Switches). Steady state must not
// allocate. Run it with
// `go test -run='^$' -bench=CreditDispatch -benchmem ./internal/xen/`.
func BenchmarkCreditDispatch(b *testing.B) {
	const pcpus, doms, vcpus = 4, 4, 2
	eng := sim.NewEngine(1)
	pool := NewPool(eng, DefaultConfig(pcpus))
	for d := 0; d < doms; d++ {
		addHogDomain(eng, pool, fmt.Sprintf("d%d", d), 256, vcpus)
	}
	pool.Start()
	switches := func() uint64 {
		n := uint64(0)
		for _, p := range pool.PCPUs() {
			n += p.Switches
		}
		return n
	}
	step := func() {
		if err := eng.RunUntil(eng.Now() + acctPeriod); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		step()
	}
	before := switches()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	n := switches() - before
	if n == 0 {
		b.Fatalf("no dispatch in %d accounting periods", b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/dispatch")
	if a := testing.AllocsPerRun(100, step); a != 0 {
		b.Fatalf("%v allocations per accounting period, want 0", a)
	}
}
