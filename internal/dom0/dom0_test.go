package dom0

import (
	"testing"

	"vscale/internal/costmodel"
	"vscale/internal/sim"
)

func TestReadScalesLinearlyWithVMs(t *testing.T) {
	d := New(sim.NewRand(1))
	avg := func(n int) sim.Time {
		var sum sim.Time
		const reps = 200
		for i := 0; i < reps; i++ {
			sum += d.ReadVMStats(n, Idle)
		}
		return sum / reps
	}
	a1, a10, a50 := avg(1), avg(10), avg(50)
	// ~480µs per VM when idle.
	if a1 < 400*sim.Microsecond || a1 > 560*sim.Microsecond {
		t.Fatalf("1-VM read = %v, want ~480µs", a1)
	}
	r10 := float64(a10) / float64(a1)
	r50 := float64(a50) / float64(a1)
	if r10 < 8 || r10 > 12 || r50 < 42 || r50 > 58 {
		t.Fatalf("not linear: 10VM ratio %.1f, 50VM ratio %.1f", r10, r50)
	}
}

func TestIOLoadInflatesMonitoring(t *testing.T) {
	d := New(sim.NewRand(2))
	avg := func(w Workload) (sim.Time, sim.Time) {
		var sum, max sim.Time
		const reps = 500
		for i := 0; i < reps; i++ {
			v := d.ReadVMStats(50, w)
			sum += v
			if v > max {
				max = v
			}
		}
		return sum / reps, max
	}
	idleAvg, _ := avg(Idle)
	diskAvg, _ := avg(DiskIO)
	netAvg, netMax := avg(NetworkIO)
	if !(idleAvg < diskAvg && diskAvg < netAvg) {
		t.Fatalf("ordering wrong: idle %v disk %v net %v", idleAvg, diskAvg, netAvg)
	}
	// Paper: with network I/O, reading 50 VMs takes >6ms on average with
	// maxima approaching 30ms.
	if netAvg < 6*sim.Millisecond {
		t.Fatalf("net avg = %v, want > 6ms", netAvg)
	}
	if netMax < 15*sim.Millisecond {
		t.Fatalf("net max = %v, want tens of ms", netMax)
	}
}

func TestChannelBeatsDom0ByOrdersOfMagnitude(t *testing.T) {
	// The decentralised vScale channel (0.91µs) vs the cheapest possible
	// dom0 sweep (1 VM, idle): >400x.
	d := New(sim.NewRand(3))
	cheapest := d.ReadVMStats(1, Idle)
	if cheapest < 400*costmodel.ChannelRead {
		t.Fatalf("dom0 %v vs channel %v: expected >400x gap", cheapest, costmodel.ChannelRead)
	}
}

func TestFleetSweepPerHostCosts(t *testing.T) {
	d := New(sim.NewRand(6))
	const reps = 200
	hosts := []int{0, 1, 10, 50}
	sums := make([]sim.Time, len(hosts))
	for r := 0; r < reps; r++ {
		lats := d.FleetSweep(hosts, Idle)
		if len(lats) != len(hosts) {
			t.Fatalf("FleetSweep returned %d entries for %d hosts", len(lats), len(hosts))
		}
		for h, lat := range lats {
			sums[h] += lat
		}
	}
	if sums[0] != 0 {
		t.Fatal("empty host must cost nothing")
	}
	// Each host pays its own linear sweep: ~480µs per VM when idle.
	a1 := sums[1] / reps
	a50 := sums[3] / reps
	if a1 < 400*sim.Microsecond || a1 > 560*sim.Microsecond {
		t.Fatalf("1-VM host sweep = %v, want ~480µs", a1)
	}
	if r := float64(a50) / float64(a1); r < 42 || r > 58 {
		t.Fatalf("50-VM host not linear vs 1-VM host: ratio %.1f", r)
	}
}

func TestDegenerateInputs(t *testing.T) {
	d := New(sim.NewRand(5))
	if d.ReadVMStats(0, NetworkIO) != 0 {
		t.Fatal("0 VMs should cost nothing")
	}
	if d.ReadVMStats(-3, Idle) != 0 {
		t.Fatal("negative VMs should cost nothing")
	}
	if Workload(9).String() == "" {
		t.Fatal("unknown workload format")
	}
}
