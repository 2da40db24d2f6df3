package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vscale/internal/sim"
)

// TestNilTracerIsDisabled: a nil *Tracer must be a fully working,
// fully disabled tracer — every method a no-op, the export still valid.
func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.RegisterPCPUs(4)
	tr.RegisterDomain(0, "vm", 2, 0)
	tr.VCPUState(10, 0, 0, 0, VRun)
	tr.SetFrozen(20, 0, 1, 0, true)
	tr.CreditTick(30, 0, 0, 5*sim.Millisecond)
	tr.Boost(40, 0, 0)
	tr.Migrate(50, 0, 0, 0, 1)
	tr.EvtchnSend(60, 0, 0, "ipi")
	tr.IPIDelivery(70, 0, 0, sim.Microsecond)
	tr.IRQDelivery(80, 0, 0, sim.Microsecond)
	tr.FreezeOp(90, 0, 1, true)
	tr.FutexWait(100, 0, 0)
	tr.FutexWake(110, 0, 0, 3)
	tr.SpinWait(120, 0, 0, sim.Microsecond, "l")
	tr.SpinHold(130, 0, 0, sim.Microsecond, "l")
	tr.LHP(140, 0, 0, sim.Millisecond)
	tr.Hotplug(150, 0, sim.Millisecond, "reconfig")
	tr.SimEvent(160, "x")
	tr.SetEngineCounters(1, 2, 3)
	if tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 || tr.MaxAt() != 0 {
		t.Fatal("nil tracer accumulated state")
	}
	if tr.Events() != nil {
		t.Fatal("nil tracer returned events")
	}
	snap := tr.Snapshot(200)
	if len(snap.VCPUs) != 0 {
		t.Fatal("nil tracer snapshot has vCPUs")
	}
	if tr.Totals() != (Totals{}) {
		t.Fatal("nil tracer has non-zero totals")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, 200); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil WriteChrome output is not JSON: %v", err)
	}
}

// TestRingOverflow: a capacity-N ring under N+k records keeps the
// newest N, counts k drops, and the exporter annotates the loss.
func TestRingOverflow(t *testing.T) {
	const capacity, pushes = 8, 13
	tr := New(Config{RingCapacity: capacity})
	labels := []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12"}
	for i := 0; i < pushes; i++ {
		tr.SimEvent(sim.Time(i)*sim.Microsecond, labels[i])
	}
	if tr.Len() != capacity {
		t.Fatalf("Len = %d, want %d", tr.Len(), capacity)
	}
	if tr.Total() != pushes {
		t.Fatalf("Total = %d, want %d", tr.Total(), pushes)
	}
	if want := uint64(pushes - capacity); tr.Dropped() != want {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped(), want)
	}
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("Events len = %d, want %d", len(evs), capacity)
	}
	for i, ev := range evs {
		if want := labels[pushes-capacity+i]; ev.Label != want {
			t.Fatalf("event %d label = %q, want %q (newest-wins, oldest-first)", i, ev.Label, want)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, 13*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ring-dropped") {
		t.Fatal("export of an overflowed ring lacks the ring-dropped annotation")
	}
	var out struct {
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.OtherData["ring_dropped"] != "5" {
		t.Fatalf("otherData ring_dropped = %q, want \"5\"", out.OtherData["ring_dropped"])
	}
}

// TestDwellAccounting drives a scripted RUN/RUNNABLE/BLOCKED life and
// checks per-state dwell, the wakeup-to-run latency feed, and that the
// dwell sum equals the elapsed time exactly.
func TestDwellAccounting(t *testing.T) {
	tr := New(Config{RingCapacity: 64})
	tr.RegisterDomain(0, "vm", 1, 0)

	ms := func(n int64) sim.Time { return sim.Time(n) * sim.Millisecond }
	// BLOCKED 0-10, RUNNABLE 10-14, RUN 14-30, RUNNABLE 30-31, RUN 31-40,
	// BLOCKED from 40; snapshot at 50.
	tr.VCPUState(ms(10), 0, 0, 0, VRunnable)
	tr.VCPUState(ms(14), 0, 0, 0, VRun)
	tr.VCPUState(ms(30), 0, 0, 0, VRunnable)
	tr.VCPUState(ms(31), 0, 0, 0, VRun)
	tr.VCPUState(ms(40), 0, 0, 0, VBlocked)
	snap := tr.Snapshot(ms(50))
	if len(snap.VCPUs) != 1 {
		t.Fatalf("snapshot has %d vCPUs, want 1", len(snap.VCPUs))
	}
	v := snap.VCPUs[0]
	if v.Dwell[VRun] != ms(25) {
		t.Errorf("RUN dwell = %v, want 25ms", v.Dwell[VRun])
	}
	if v.Dwell[VRunnable] != ms(5) {
		t.Errorf("RUNNABLE dwell = %v, want 5ms", v.Dwell[VRunnable])
	}
	if v.Dwell[VBlocked] != ms(20) {
		t.Errorf("BLOCKED dwell = %v, want 20ms (10 + open tail 10)", v.Dwell[VBlocked])
	}
	if v.Total != ms(50) {
		t.Errorf("dwell sum = %v, want exactly the elapsed 50ms", v.Total)
	}
	if v.WakeCount != 2 {
		t.Errorf("wake count = %d, want 2", v.WakeCount)
	}
	if want := (4000.0 + 1000.0) / 2; v.WakeMeanUs != want {
		t.Errorf("wake mean = %.1fus, want %.1fus", v.WakeMeanUs, want)
	}

	// Snapshot must not mutate the live accounting: a second snapshot at
	// the same end is identical.
	again := tr.Snapshot(ms(50))
	if again.VCPUs[0].Dwell != v.Dwell {
		t.Error("second snapshot differs: Snapshot mutated live state")
	}
}

// TestFrozenOverlay: while the frozen flag is set, dwell is charged to
// FROZEN regardless of the hypervisor-side state underneath.
func TestFrozenOverlay(t *testing.T) {
	tr := New(Config{RingCapacity: 64})
	tr.RegisterDomain(0, "vm", 2, 0)
	ms := func(n int64) sim.Time { return sim.Time(n) * sim.Millisecond }

	tr.VCPUState(ms(0), 0, 1, 3, VRun)
	tr.SetFrozen(ms(10), 0, 1, 3, true)
	// Scheduler churn while frozen must all land in FROZEN.
	tr.VCPUState(ms(12), 0, 1, 3, VRunnable)
	tr.VCPUState(ms(15), 0, 1, 3, VBlocked)
	tr.SetFrozen(ms(30), 0, 1, 3, false)
	snap := tr.Snapshot(ms(40))
	v := snap.VCPUs[1]
	if v.Dwell[VFrozen] != ms(20) {
		t.Errorf("FROZEN dwell = %v, want 20ms", v.Dwell[VFrozen])
	}
	if v.Dwell[VRun] != ms(10) {
		t.Errorf("RUN dwell = %v, want 10ms", v.Dwell[VRun])
	}
	if v.Dwell[VBlocked] != ms(10) {
		t.Errorf("BLOCKED dwell = %v, want 10ms (tail after unfreeze)", v.Dwell[VBlocked])
	}
	if v.Total != ms(40) {
		t.Errorf("dwell sum = %v, want 40ms", v.Total)
	}
	// A frozen RUNNABLE->RUN hop is not a wakeup.
	if v.WakeCount != 0 {
		t.Errorf("wake count = %d, want 0", v.WakeCount)
	}
}

// TestLHPAccounting: LHP spans accumulate count/total/max.
func TestLHPAccounting(t *testing.T) {
	tr := New(Config{RingCapacity: 16})
	tr.RegisterDomain(0, "vm", 1, 0)
	tr.LHP(10*sim.Millisecond, 0, 0, 3*sim.Millisecond)
	tr.LHP(20*sim.Millisecond, 0, 0, 7*sim.Millisecond)
	v := tr.Snapshot(30 * sim.Millisecond).VCPUs[0]
	if v.LHPCount != 2 || v.LHPTotal != 10*sim.Millisecond || v.LHPMax != 7*sim.Millisecond {
		t.Fatalf("LHP = (%d, %v, %v), want (2, 10ms, 7ms)", v.LHPCount, v.LHPTotal, v.LHPMax)
	}
}

// TestTotalsMatchSnapshot: Totals is the sum of the Snapshot rows'
// wakeup, LHP, steal and IPI counts, across domains, and reading it
// allocates nothing.
func TestTotalsMatchSnapshot(t *testing.T) {
	tr := New(Config{RingCapacity: 16})
	tr.RegisterDomain(0, "vm", 2, 0)
	tr.RegisterDomain(1, "bg0", 1, 0)
	tr.VCPUState(sim.Millisecond, 0, 0, 0, VRunnable)
	tr.VCPUState(3*sim.Millisecond, 0, 0, 0, VRun)
	tr.VCPUState(4*sim.Millisecond, 1, 0, 1, VRunnable)
	tr.VCPUState(5*sim.Millisecond, 1, 0, 1, VRun)
	tr.LHP(6*sim.Millisecond, 0, 1, 2*sim.Millisecond)
	tr.LHP(7*sim.Millisecond, 1, 0, 3*sim.Millisecond)
	tr.Migrate(8*sim.Millisecond, 0, 1, 0, 1)
	tr.IPIDelivery(9*sim.Millisecond, 1, 0, sim.Microsecond)
	tr.IPIDelivery(9*sim.Millisecond, 0, 0, sim.Microsecond)
	var want Totals
	for _, v := range tr.Snapshot(10 * sim.Millisecond).VCPUs {
		want.Wakeups += v.WakeCount
		want.LHPs += v.LHPCount
		want.LHPTime += v.LHPTotal
		want.Steals += v.Steals
		want.IPIs += v.IPICount
	}
	if got := tr.Totals(); got != want || got != (Totals{Wakeups: 2, LHPs: 2, LHPTime: 5 * sim.Millisecond, Steals: 1, IPIs: 2}) {
		t.Fatalf("Totals = %+v, snapshot sums %+v", got, want)
	}
	if n := testing.AllocsPerRun(10, func() { tr.Totals() }); n != 0 {
		t.Fatalf("Totals allocated %v times, want 0", n)
	}
}

// TestChromeExportTracks: the export parses as JSON and declares one
// named track per pCPU and per registered vCPU.
func TestChromeExportTracks(t *testing.T) {
	tr := New(Config{RingCapacity: 64})
	tr.RegisterPCPUs(3)
	tr.RegisterDomain(0, "vm", 2, 0)
	tr.RegisterDomain(1, "bg0", 2, 0)
	tr.VCPUState(5*sim.Millisecond, 0, 0, 1, VRun)
	tr.VCPUState(9*sim.Millisecond, 0, 0, 1, VBlocked) // closes a RUN span on pcpu1

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	names := map[string]bool{}
	pcpuRun := false
	for _, ev := range out.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			names[ev.Args["name"].(string)] = true
		}
		if ev.Ph == "X" && ev.Pid == pidPCPU {
			pcpuRun = true
		}
	}
	for _, want := range []string{"pcpu0", "pcpu1", "pcpu2", "vm.vcpu0", "vm.vcpu1", "bg0.vcpu0", "bg0.vcpu1"} {
		if !names[want] {
			t.Errorf("export lacks a %q track", want)
		}
	}
	if !pcpuRun {
		t.Error("export lacks the RUN span mirrored onto the pCPU track")
	}
}
