package costmodel

import (
	"testing"

	"vscale/internal/sim"
)

func TestChannelReadMatchesPaperTable1(t *testing.T) {
	// Table 1: syscall 0.69 µs, +hypercall = 0.91 µs total.
	if Syscall != 690*sim.Nanosecond {
		t.Fatalf("syscall = %v", Syscall)
	}
	if ChannelRead != 910*sim.Nanosecond {
		t.Fatalf("channel read = %v, want 0.91µs", ChannelRead)
	}
}

func TestFreezeMasterCostMatchesPaperTable3(t *testing.T) {
	// Table 3's running total ends at 2.10 µs on the master vCPU.
	if FreezeMasterCost != 2100*sim.Nanosecond {
		t.Fatalf("freeze master cost = %v, want 2.10µs", FreezeMasterCost)
	}
	// The cumulative breakdown must match the paper's intermediate sums.
	steps := []struct {
		add  sim.Time
		want sim.Time
	}{
		{Syscall, 690 * sim.Nanosecond},
		{FreezeLock, 750 * sim.Nanosecond},
		{FreezeMaskUpdate, 780 * sim.Nanosecond},
		{GroupPowerUpdate, 900 * sim.Nanosecond},
		{Hypercall, 1120 * sim.Nanosecond},
		{RescheduleIPISend, 2100 * sim.Nanosecond},
	}
	var sum sim.Time
	for i, s := range steps {
		sum += s.add
		if sum != s.want {
			t.Fatalf("step %d cumulative = %v, want %v", i+1, sum, s.want)
		}
	}
}

func TestRangeDraw(t *testing.T) {
	r := sim.NewRand(1)
	for i := 0; i < 1000; i++ {
		d := ThreadMigrate.Draw(r)
		if d < ThreadMigrateMin || d > ThreadMigrateMax {
			t.Fatalf("thread migrate draw %v outside [%v,%v]", d, ThreadMigrateMin, ThreadMigrateMax)
		}
		d = IRQMigrate.Draw(r)
		if d < IRQMigrateMin || d > IRQMigrateMax {
			t.Fatalf("irq migrate draw %v out of range", d)
		}
	}
	if ThreadMigrate.Mid() != sim.Microsecond {
		t.Fatalf("thread migrate midpoint = %v", ThreadMigrate.Mid())
	}
}

func TestHotplugModelsOrdersOfMagnitude(t *testing.T) {
	r := sim.NewRand(2)
	for _, m := range HotplugModels {
		var downSum, upSum sim.Time
		const n = 200
		for i := 0; i < n; i++ {
			d := m.DrawDown(r)
			if d < sim.FromMillis(m.DownFloorMs) {
				t.Fatalf("%s: down %v below floor", m.Version, d)
			}
			downSum += d
			upSum += m.DrawUp(r)
		}
		downAvg, upAvg := downSum/n, upSum/n
		// Hotplug must be at least 100x slower than the vScale freeze
		// (2.1 µs): the paper's headline 100x–100,000x comparison.
		if downAvg < 100*FreezeMasterCost {
			t.Fatalf("%s: down avg %v not >100x vScale freeze", m.Version, downAvg)
		}
		if m.Version == "v-3.14.15" {
			// Best case in the paper: adding a vCPU is 350–500 µs.
			if upAvg < 300*sim.Microsecond || upAvg > 700*sim.Microsecond {
				t.Fatalf("3.14.15 up avg = %v, want ~350-500µs", upAvg)
			}
		} else if upAvg < 5*sim.Millisecond {
			t.Fatalf("%s: up avg %v should be tens of ms", m.Version, upAvg)
		}
	}
}

func TestHotplugModelFor(t *testing.T) {
	if _, ok := HotplugModelFor("v-3.14.15"); !ok {
		t.Fatal("missing 3.14.15 model")
	}
	if _, ok := HotplugModelFor("v-9.9"); ok {
		t.Fatal("unexpected model")
	}
}

func TestHotplugVersions(t *testing.T) {
	if len(HotplugModels) != 4 {
		t.Fatalf("%d hotplug models, want the paper's four kernels", len(HotplugModels))
	}
	for _, m := range HotplugModels {
		if got, ok := HotplugModelFor(m.Version); !ok || got.Version != m.Version {
			t.Fatalf("HotplugModelFor(%q) = %q, %v", m.Version, got.Version, ok)
		}
	}
	if _, ok := HotplugModelFor("v-0.1"); ok {
		t.Fatal("unknown version must not resolve")
	}
}

// TestLatencyBandsMatchFigure5 draws removals and additions alternately
// from one stream, as Figure 5 does, and checks each kernel's means
// against the paper's bands.
func TestLatencyBandsMatchFigure5(t *testing.T) {
	r := sim.NewRand(3)
	for _, m := range HotplugModels {
		var removeSum, addSum sim.Time
		const n = 300
		for i := 0; i < n; i++ {
			removeSum += m.DrawDown(r)
			addSum += m.DrawUp(r)
		}
		removeAvg := removeSum / n
		addAvg := addSum / n
		// Removal: a few ms to over 100 ms in the paper.
		if removeAvg < 2*sim.Millisecond || removeAvg > 150*sim.Millisecond {
			t.Fatalf("%s: remove avg %v outside the paper's band", m.Version, removeAvg)
		}
		if m.Version == "v-3.14.15" {
			if addAvg > sim.Millisecond {
				t.Fatalf("3.14.15 add avg %v, paper says 350-500µs at best", addAvg)
			}
		} else if addAvg < 2*sim.Millisecond {
			t.Fatalf("%s: add avg %v, paper says tens of ms", m.Version, addAvg)
		}
	}
}
