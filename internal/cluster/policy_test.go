package cluster

import (
	"fmt"
	"strings"
	"testing"

	"vscale/internal/sim"
)

func TestPolicyRegistryBuiltins(t *testing.T) {
	names := PolicyNames()
	want := []string{"static", "hotplug", "vscale", "pid", "predictive"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("built-in %q not registered (have %v)", w, names)
		}
	}
	// Registration order is the report order: built-ins come first.
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("PolicyNames()[%d] = %q, want %q", i, names[i], w)
		}
	}
}

// TestPolicyNamesRoundTrip: every registered name round-trips through
// the instance's Name()/String() and back through ParsePolicies.
func TestPolicyNamesRoundTrip(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
		if got := fmt.Sprintf("%v", p); got != name {
			t.Fatalf("policy %q prints as %q", name, got)
		}
		sel, err := ParsePolicies(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel) != 1 || sel[0] != name {
			t.Fatalf("ParsePolicies(%q) = %v", name, sel)
		}
	}
}

func TestNewPolicyUnknownListsNames(t *testing.T) {
	_, err := NewPolicy("bogus")
	if err == nil {
		t.Fatal("unknown policy: want error")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list known policy %q", err, name)
		}
	}
}

func TestRegisterPolicyRejectsBadAndDuplicate(t *testing.T) {
	if err := RegisterPolicy("", func() ScalingPolicy { return staticPolicy{} }); err == nil {
		t.Fatal("empty name: want error")
	}
	if err := RegisterPolicy("has space", func() ScalingPolicy { return staticPolicy{} }); err == nil {
		t.Fatal("name with space: want error")
	}
	if err := RegisterPolicy("has,comma", func() ScalingPolicy { return staticPolicy{} }); err == nil {
		t.Fatal("name with comma: want error")
	}
	if err := RegisterPolicy("nil-factory", nil); err == nil {
		t.Fatal("nil factory: want error")
	}
	if err := RegisterPolicy("static", func() ScalingPolicy { return staticPolicy{} }); err == nil {
		t.Fatal("duplicate registration: want error")
	}
	// A fresh name registers fine and is then itself a duplicate.
	name := "test-only-policy"
	if err := RegisterPolicy(name, func() ScalingPolicy { return staticPolicy{} }); err != nil {
		t.Fatal(err)
	}
	if err := RegisterPolicy(name, func() ScalingPolicy { return staticPolicy{} }); err == nil {
		t.Fatal("re-registration: want error")
	}
}

func TestParsePolicies(t *testing.T) {
	all := PolicyNames()
	for _, s := range []string{"", "all"} {
		sel, err := ParsePolicies(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel) != len(all) {
			t.Fatalf("ParsePolicies(%q) = %v, want all %v", s, sel, all)
		}
	}
	sel, err := ParsePolicies(" vscale , pid ")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] != "vscale" || sel[1] != "pid" {
		t.Fatalf("ParsePolicies with spaces = %v", sel)
	}
	if _, err := ParsePolicies("vscale,vscale"); err == nil {
		t.Fatal("duplicate selection: want error")
	}
	if _, err := ParsePolicies("vscale,bogus"); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("unknown selection: got %v, want an unknown policy error", err)
	}
	if _, err := ParsePolicies(",,"); err == nil {
		t.Fatal("empty selection: want error")
	}
}

// pidPlant is a synthetic first-order service model for closed-loop
// controller tests: with `need` vCPUs of true demand and `active`
// provisioned, the epoch p95 scales as need/active around the
// controller's setpoint, and consumption saturates at the provisioned
// count.
type pidPlant struct {
	slo    sim.Time
	epoch  sim.Time
	max    int
	active int
	need   int
}

func (p *pidPlant) observe() VMObservation {
	setpoint := 0.8 * p.slo.Milliseconds()
	consumed := p.need
	if consumed > p.active {
		consumed = p.active
	}
	return VMObservation{
		VM:          "vm0",
		Epoch:       p.epoch,
		MaxVCPUs:    p.max,
		ActiveVCPUs: p.active,
		HostPCPUs:   p.max,
		ConsumedCPU: sim.Time(consumed) * p.epoch,
		Offered:     1000,
		Replies:     1000,
		P95:         setpoint * float64(p.need) / float64(p.active),
		Attainment:  1,
		SLO:         p.slo,
	}
}

// step drives the loop one epoch and applies the decision.
func (p *pidPlant) step(pol ScalingPolicy) int {
	if target := pol.Decide(p.observe()); target > 0 {
		p.active = clampVCPUs(target, p.max)
	}
	return p.active
}

func TestPIDStepResponseUp(t *testing.T) {
	pol := NewPIDPolicy(DefaultPIDConfig())
	plant := &pidPlant{slo: 50 * sim.Millisecond, epoch: 500 * sim.Millisecond, max: 8, active: 2, need: 2}
	for i := 0; i < 3; i++ {
		if got := plant.step(pol); got != 2 {
			t.Fatalf("converged plant resized to %d", got)
		}
	}
	plant.need = 6
	var traj []int
	overshoot := 0
	converged := -1
	for i := 0; i < 12; i++ {
		got := plant.step(pol)
		traj = append(traj, got)
		if got > 6 {
			overshoot++
		}
		if got == 6 && converged < 0 {
			converged = i
		}
	}
	if converged < 0 || converged > 4 {
		t.Fatalf("demand step 2->6 did not converge promptly: %v", traj)
	}
	if overshoot > 1 {
		t.Fatalf("demand step 2->6 overshot for %d epochs: %v", overshoot, traj)
	}
	for _, got := range traj[converged+2:] {
		if got != 6 {
			t.Fatalf("controller left the converged point: %v", traj)
		}
	}
}

func TestPIDStepResponseDown(t *testing.T) {
	pol := NewPIDPolicy(DefaultPIDConfig())
	plant := &pidPlant{slo: 50 * sim.Millisecond, epoch: 500 * sim.Millisecond, max: 8, active: 6, need: 6}
	for i := 0; i < 3; i++ {
		plant.step(pol)
	}
	plant.need = 2
	var traj []int
	undershoot := 0
	converged := -1
	prev := plant.active
	for i := 0; i < 12; i++ {
		got := plant.step(pol)
		traj = append(traj, got)
		if got < 2 {
			undershoot++
		}
		// Multiplicative decrease: one epoch never halves-and-more.
		if got < (prev+1)/2 {
			t.Fatalf("shrink %d -> %d exceeds the multiplicative bound: %v", prev, got, traj)
		}
		prev = got
		if got == 2 && converged < 0 {
			converged = i
		}
	}
	if converged < 0 || converged > 5 {
		t.Fatalf("demand step 6->2 did not converge promptly: %v", traj)
	}
	if undershoot > 1 {
		t.Fatalf("demand step 6->2 undershot for %d epochs: %v", undershoot, traj)
	}
	for _, got := range traj[converged+2:] {
		if got != 2 {
			t.Fatalf("controller left the converged point: %v", traj)
		}
	}
}

// TestPIDAntiWindup: a target unreachable at the vCPU ceiling must not
// accumulate integral turns, and once demand returns to normal the
// controller must come back down as fast as the AIMD bound allows.
func TestPIDAntiWindup(t *testing.T) {
	pol := NewPIDPolicy(DefaultPIDConfig())
	pid := pol.(*pidPolicy)
	plant := &pidPlant{slo: 50 * sim.Millisecond, epoch: 500 * sim.Millisecond, max: 4, need: 12, active: 2}
	for i := 0; i < 10; i++ {
		plant.step(pol)
	}
	if plant.active != 4 {
		t.Fatalf("saturated plant at %d vCPUs, want the cap 4", plant.active)
	}
	frozen := pid.vms["vm0"].integral
	for i := 0; i < 10; i++ {
		plant.step(pol)
	}
	if got := pid.vms["vm0"].integral; got != frozen {
		t.Fatalf("integral grew from %g to %g while saturated at the cap", frozen, got)
	}
	if frozen > DefaultPIDConfig().IntegralClamp {
		t.Fatalf("integral %g beyond the clamp", frozen)
	}
	// Demand collapses: with no windup to unwind, the controller tracks
	// the AIMD multiplicative-decrease path down without delay.
	plant.need = 1
	if got := plant.step(pol); got > 2 {
		t.Fatalf("first epoch after saturation still at %d vCPUs (windup)", got)
	}
	if got := plant.step(pol); got != 1 {
		t.Fatalf("second epoch after saturation at %d vCPUs, want 1", got)
	}
}

// TestPIDWedgedVM: offered-but-unanswered traffic reads as a
// full-scale error and grows the VM.
func TestPIDWedgedVM(t *testing.T) {
	pol := NewPIDPolicy(DefaultPIDConfig())
	o := VMObservation{
		VM: "vm0", Epoch: 500 * sim.Millisecond,
		MaxVCPUs: 8, ActiveVCPUs: 2, HostPCPUs: 8,
		Offered: 100, Replies: 0, InFlight: 100,
		SLO: 50 * sim.Millisecond,
	}
	if got := pol.Decide(o); got <= 2 {
		t.Fatalf("wedged VM target %d, want growth", got)
	}
}

// TestPIDIdleDecays: with no offered load the controller releases
// everything above the consumption floor and forgets its state.
func TestPIDIdleDecays(t *testing.T) {
	pol := NewPIDPolicy(DefaultPIDConfig())
	o := VMObservation{
		VM: "vm0", Epoch: 500 * sim.Millisecond,
		MaxVCPUs: 8, ActiveVCPUs: 6, HostPCPUs: 8,
		ConsumedCPU: 400 * sim.Millisecond, // < 1 vCPU of demand
		SLO:         50 * sim.Millisecond,
	}
	if got := pol.Decide(o); got != 1 {
		t.Fatalf("idle VM target %d, want 1", got)
	}
	// Already at the floor: no decision.
	o.ActiveVCPUs = 1
	if got := pol.Decide(o); got != 0 {
		t.Fatalf("idle VM at floor got decision %d, want 0", got)
	}
}

func TestPredictiveTracksRamp(t *testing.T) {
	pol := NewPredictivePolicy(DefaultPredictiveConfig())
	epoch := 500 * sim.Millisecond
	obs := func(consumedVCPUs float64, active int) VMObservation {
		return VMObservation{
			VM: "vm0", Epoch: epoch,
			MaxVCPUs: 8, ActiveVCPUs: active, HostPCPUs: 8,
			ConsumedCPU: sim.Time(consumedVCPUs * float64(epoch)),
			Offered:     1000, Replies: 1000, Attainment: 1,
			SLO: 50 * sim.Millisecond,
		}
	}
	// Steady demand of 2 vCPUs: forecast*headroom lands at ceil(2*1.25)=3.
	var got int
	for i := 0; i < 6; i++ {
		got = pol.Decide(obs(2, 3))
	}
	if got != 3 {
		t.Fatalf("steady 2-vCPU demand -> target %d, want 3", got)
	}
	// A sustained linear ramp: exponential smoothing alone would lag the
	// level well below the newest sample (≈4.98 after this ramp ends at
	// 5.0); the trend term must make up that lag so the provisioned
	// target never falls behind current demand with headroom.
	ramp := NewPredictivePolicy(DefaultPredictiveConfig())
	var rampTarget int
	for d := 0.5; d <= 5.0; d += 0.5 {
		rampTarget = ramp.Decide(VMObservation{
			VM: "ramp", Epoch: epoch,
			MaxVCPUs: 16, ActiveVCPUs: 8, HostPCPUs: 16,
			ConsumedCPU: sim.Time(d * float64(epoch)),
			Offered:     1000, Replies: 1000, Attainment: 1,
			SLO: 50 * sim.Millisecond,
		})
	}
	if rampTarget < 7 { // ceil(5.0 * 1.25)
		t.Fatalf("ramping demand -> target %d, want the trend to cover the lag (>= 7)", rampTarget)
	}
	// Demand collapses: the forecast follows down within a few epochs.
	for i := 0; i < 6; i++ {
		got = pol.Decide(obs(0.3, got))
	}
	if got != 1 {
		t.Fatalf("collapsed demand -> target %d, want 1", got)
	}
}

// TestPredictivePressureBump: throttled consumption under-reports
// demand; slipped attainment forces one step up past the forecast.
func TestPredictivePressureBump(t *testing.T) {
	pol := NewPredictivePolicy(DefaultPredictiveConfig())
	epoch := 500 * sim.Millisecond
	o := VMObservation{
		VM: "vm0", Epoch: epoch,
		MaxVCPUs: 8, ActiveVCPUs: 2, HostPCPUs: 8,
		ConsumedCPU: 2 * epoch, // saturating its 2 active vCPUs
		Offered:     1000, Replies: 600, Attainment: 0.6,
		SLO: 50 * sim.Millisecond,
	}
	if got := pol.Decide(o); got != 3 {
		t.Fatalf("throttled VM target %d, want the +1 pressure bump (3)", got)
	}
}

func TestClampVCPUs(t *testing.T) {
	for _, c := range []struct{ target, max, want int }{
		{0, 8, 1}, {-5, 8, 1}, {3, 8, 3}, {9, 8, 8}, {1, 1, 1}, {5, 4, 4},
	} {
		if got := clampVCPUs(c.target, c.max); got != c.want {
			t.Fatalf("clampVCPUs(%d, %d) = %d, want %d", c.target, c.max, got, c.want)
		}
	}
}

// TestMechanisms: the built-ins describe the guest plumbing the host
// wires up, matching the enum semantics they replaced.
func TestMechanisms(t *testing.T) {
	for _, c := range []struct {
		name string
		want Mechanism
	}{
		{"static", Mechanism{}},
		{"hotplug", Mechanism{Channel: true, Daemon: true, Hotplug: true}},
		{"vscale", Mechanism{Channel: true, Daemon: true}},
		{"pid", Mechanism{}},
		{"predictive", Mechanism{}},
	} {
		p, err := NewPolicy(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Mechanism(); got != c.want {
			t.Fatalf("%s mechanism = %+v, want %+v", c.name, got, c.want)
		}
	}
}
