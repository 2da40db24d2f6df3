package guest

import (
	"fmt"
	"testing"

	"vscale/internal/sim"
	"vscale/internal/xen"
)

// BenchmarkGuestTicks measures the guest's 1000 Hz tick on the shape of
// the paper's consolidated runs: two 4-vCPU VMs share a 4-pCPU pool
// (2:1), each vCPU runs one thread computing 50 ms at a time forever,
// and the credit scheduler time-slices them. Most ticks are trivial (no
// software timer pending, no rotation, no balance), so this is mostly
// tickFire's count, charge and re-arm and the engine's 1 ms lane, with
// the slice switches, balance ticks and vCPU dispatches around them. Each op advances the
// simulation by 1 ms; the ns/tick metric divides the time by the timer
// interrupts the guests took. Steady state must not allocate. Run it
// with `go test -run='^$' -bench=GuestTicks -benchmem ./internal/guest/`.
func BenchmarkGuestTicks(b *testing.B) {
	const pcpus, vcpus = 4, 4
	eng := sim.NewEngine(1)
	pool := xen.NewPool(eng, xen.DefaultConfig(pcpus))
	var ks []*Kernel
	for v := 0; v < 2; v++ {
		k := NewKernel(pool.AddDomain(fmt.Sprintf("vm%d", v), 256, vcpus, nil), DefaultConfig())
		for i := 0; i < vcpus; i++ {
			k.Spawn("hog", Uthread, &cycle{acts: []Action{Compute(50 * sim.Millisecond)}}, nil)
		}
		ks = append(ks, k)
	}
	pool.Start()
	for _, k := range ks {
		k.Boot()
	}
	ticks := func() uint64 {
		n := uint64(0)
		for _, k := range ks {
			for i := 0; i < k.NCPUs(); i++ {
				n += k.CPUStatsOf(i).TimerInterrupts
			}
		}
		return n
	}
	if err := eng.RunUntil(100 * sim.Millisecond); err != nil {
		b.Fatal(err)
	}
	before := ticks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.RunUntil(eng.Now() + sim.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n := ticks() - before
	if n < uint64(b.N) {
		b.Fatalf("%d ticks in %d ms of simulated time", n, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/tick")
	step := func() {
		if err := eng.RunUntil(eng.Now() + sim.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, step); a != 0 {
		b.Fatalf("%v allocations per simulated millisecond, want 0", a)
	}
}
