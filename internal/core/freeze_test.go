package core

import (
	"testing"

	"vscale/internal/costmodel"
	"vscale/internal/sim"
)

func TestMasterStepsOrderAndCost(t *testing.T) {
	steps := MasterSteps()
	if len(steps) != 6 {
		t.Fatalf("got %d master steps, want 6", len(steps))
	}
	// The order is load-bearing (Algorithm 2: "must be executed in this
	// order"): mask before group power before hypercall before IPI.
	wantOrder := []MasterStep{StepSyscall, StepFreezeLock, StepMaskUpdate,
		StepGroupPower, StepHypercall, StepRescheduleIPI}
	for i, s := range steps {
		if s != wantOrder[i] {
			t.Fatalf("step %d = %v, want %v", i, s, wantOrder[i])
		}
		if s.Cost() <= 0 {
			t.Fatalf("step %v has non-positive cost", s)
		}
		if s.String() == "" {
			t.Fatalf("step %v has empty name", s)
		}
	}
	if MasterCost() != 2100*sim.Nanosecond {
		t.Fatalf("master cost = %v, want 2.10µs (Table 3)", MasterCost())
	}
	var sum sim.Time
	for _, s := range steps {
		sum += s.Cost()
	}
	if sum != MasterCost() {
		t.Fatalf("the steps cost %v in sum, MasterCost says %v", sum, MasterCost())
	}
}

func TestFreezePlanCosts(t *testing.T) {
	p := FreezePlan{TargetVCPU: 3, MigratableThreads: 10, DeviceIRQs: 2}
	want := 10*costmodel.ThreadMigrate.Mid() + 2*costmodel.IRQMigrate.Mid()
	if p.TargetCostExpected() != want {
		t.Fatalf("expected target cost = %v, want %v", p.TargetCostExpected(), want)
	}
	if p.TotalExpected() != MasterCost()+want {
		t.Fatal("total must be master + target")
	}
	r := sim.NewRand(5)
	for i := 0; i < 100; i++ {
		d := p.DrawTargetCost(r)
		lo := 10*costmodel.ThreadMigrateMin + 2*costmodel.IRQMigrateMin
		hi := 10*costmodel.ThreadMigrateMax + 2*costmodel.IRQMigrateMax
		if d < lo || d > hi {
			t.Fatalf("drawn target cost %v outside [%v, %v]", d, lo, hi)
		}
	}
}

func TestFreezePlanEmpty(t *testing.T) {
	p := FreezePlan{TargetVCPU: 1}
	if p.TargetCostExpected() != 0 {
		t.Fatal("no work should cost nothing on the target")
	}
	if p.DrawTargetCost(sim.NewRand(1)) != 0 {
		t.Fatal("draw of empty plan should be zero")
	}
}

func TestFreezeVsHotplugHeadline(t *testing.T) {
	// The paper's headline: vScale reconfiguration is 100x–100,000x
	// faster than CPU hotplug. Even a freeze migrating 100 threads stays
	// microsecond-scale.
	p := FreezePlan{MigratableThreads: 100, DeviceIRQs: 4}
	if p.TotalExpected() > 200*sim.Microsecond {
		t.Fatalf("freeze with 100 threads = %v, should stay ~100µs", p.TotalExpected())
	}
}

func TestGovernorImmediateUp(t *testing.T) {
	g := NewGovernor(1, 8, 4, 3)
	if got := g.Observe(8); got != 8 {
		t.Fatalf("scale-up not immediate: %d", got)
	}
	if g.Current() != 8 {
		t.Fatal("current not updated")
	}
}

func TestGovernorDownHysteresis(t *testing.T) {
	g := NewGovernor(1, 8, 8, 2)
	if got := g.Observe(4); got != 8 {
		t.Fatalf("scaled down after 1 reading with hysteresis 2: %d", got)
	}
	if got := g.Observe(4); got != 8 {
		t.Fatalf("scaled down after 2 readings: %d", got)
	}
	if got := g.Observe(4); got != 4 {
		t.Fatalf("did not scale down after 3 readings: %d", got)
	}
}

func TestGovernorDownStreakUsesMaxReading(t *testing.T) {
	// Fluctuating low readings scale down conservatively: to the
	// highest reading seen in the streak.
	g := NewGovernor(1, 8, 8, 2)
	g.Observe(4)
	g.Observe(2)
	if got := g.Observe(2); got != 4 {
		t.Fatalf("after streak [4 2 2] expected down to 4 (streak max), got %d", got)
	}
	// A following streak of pure 2s brings it the rest of the way.
	g.Observe(2)
	g.Observe(2)
	if got := g.Observe(2); got != 2 {
		t.Fatalf("expected 2 after a consistent low streak, got %d", got)
	}
}

func TestGovernorUpInterruptsDown(t *testing.T) {
	g := NewGovernor(1, 8, 8, 2)
	g.Observe(4)
	g.Observe(4)
	g.Observe(8) // demand is back: cancel the pending down-scale
	if got := g.Observe(4); got != 8 {
		t.Fatalf("hysteresis must restart after an up: %d", got)
	}
}

func TestGovernorBoundsAndForce(t *testing.T) {
	g := NewGovernor(2, 6, 4, 0)
	if got := g.Observe(100); got != 6 {
		t.Fatalf("max clamp failed: %d", got)
	}
	if got := g.Observe(0); got != 2 {
		t.Fatalf("min clamp failed: %d", got)
	}
	g.ForceCurrent(100)
	if g.Current() != 6 {
		t.Fatalf("ForceCurrent clamp failed: %d", g.Current())
	}
	// Degenerate constructor input is repaired.
	g2 := NewGovernor(0, -1, 9, 0)
	if g2.MinVCPUs != 1 || g2.MaxVCPUs != 1 || g2.Current() != 1 {
		t.Fatalf("constructor repair failed: %+v", g2)
	}
}

func TestGovernorZeroHysteresisImmediate(t *testing.T) {
	g := NewGovernor(1, 8, 8, 0)
	if got := g.Observe(3); got != 3 {
		t.Fatalf("zero hysteresis should scale down immediately: %d", got)
	}
}
