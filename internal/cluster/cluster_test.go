package cluster

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"vscale/internal/core"
	"vscale/internal/guest"
	"vscale/internal/sim"
)

func TestGenTraceDeterministic(t *testing.T) {
	cfg := DefaultTraceConfig(8 * sim.Second)
	a := GenTrace(cfg, 42)
	b := GenTrace(cfg, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (cfg, seed) produced different traces")
	}
	c := GenTrace(cfg, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	arrives := 0
	seen := map[string]bool{}
	for i, ev := range a {
		if i > 0 && ev.At < a[i-1].At {
			t.Fatalf("trace not sorted at %d", i)
		}
		if ev.At >= cfg.Horizon {
			t.Fatalf("event at %v past horizon %v", ev.At, cfg.Horizon)
		}
		switch ev.Kind {
		case EventArrive:
			if seen[ev.VM] {
				t.Fatalf("VM %s arrives twice", ev.VM)
			}
			seen[ev.VM] = true
			arrives++
			if ev.VCPUs <= 0 || ev.RateRPS <= 0 {
				t.Fatalf("bad arrival %+v", ev)
			}
		case EventPhase, EventDepart:
			if !seen[ev.VM] {
				t.Fatalf("%v for VM %s before its arrival", ev.Kind, ev.VM)
			}
		}
	}
	if arrives < cfg.InitialVMs {
		t.Fatalf("only %d arrivals, want >= %d initial", arrives, cfg.InitialVMs)
	}
}

func TestTraceFormatRoundTrip(t *testing.T) {
	events := GenTrace(DefaultTraceConfig(6*sim.Second), 7)
	var buf bytes.Buffer
	if err := FormatTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# vscale-churn/v1\n") {
		t.Fatalf("missing header: %q", buf.String()[:40])
	}
	back, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatal("format/parse round trip changed the trace")
	}
}

// traceHdr is the vscale-churn/v1 header line.
const traceHdr = "# vscale-churn/v1\n"

// badTraces are malformed vscale-churn/v1 inputs and the error each
// must produce. FuzzParseTrace seeds from them.
var badTraces = []struct {
	name    string
	in      string
	wantErr string
}{
	{"empty", "", "empty trace"},
	{"bad header", "not a header\n", "want header"},
	{"bad timestamp", traceHdr + "xyz arrive vm0 vcpus=2 rate=100\n", "bad timestamp"},
	{"negative timestamp", traceHdr + "-5 arrive vm0 vcpus=2 rate=100\n", "negative timestamp"},
	{"unsorted", traceHdr + "200 arrive vm0 vcpus=2 rate=100\n100 arrive vm1 vcpus=2 rate=100\n", "not sorted"},
	{"unknown kind", traceHdr + "100 explode vm0\n", "unknown event"},
	{"arrive missing rate", traceHdr + "100 arrive vm0 vcpus=2\n", "arrive needs"},
	{"arrive swapped keys", traceHdr + "100 arrive vm0 rate=5 vcpus=2\n", "want vcpus="},
	{"arrive zero vcpus", traceHdr + "100 arrive vm0 vcpus=0 rate=100\n", "0 vcpus"},
	{"arrive 65 vcpus", traceHdr + "100 arrive vm0 vcpus=65 rate=100\n", "65 vcpus"},
	{"arrive negative rate", traceHdr + "100 arrive vm0 vcpus=2 rate=-3\n", "negative rate"},
	{"arrive NaN rate", traceHdr + "100 arrive vm0 vcpus=2 rate=NaN\n", "non-finite rate"},
	{"arrive Inf rate", traceHdr + "100 arrive vm0 vcpus=2 rate=Inf\n", "non-finite rate"},
	{"arrive sub-ns gap", traceHdr + "100 arrive vm0 vcpus=2 rate=1e12\n", "out of range"},
	{"arrive gap past MaxTime", traceHdr + "100 arrive vm0 vcpus=2 rate=1e-300\n", "out of range"},
	{"phase NaN rate", traceHdr + "100 arrive vm0 vcpus=2 rate=100\n200 phase vm0 rate=NaN\n", "non-finite rate"},
	{"dirty NaN", traceHdr + "100 arrive vm0 vcpus=2 rate=100 dirty=NaN\n", "dirty rate"},
	{"dirty Inf", traceHdr + "100 arrive vm0 vcpus=2 rate=100 dirty=Inf\n", "dirty rate"},
	{"duplicate arrival", traceHdr + "100 arrive vm0 vcpus=2 rate=100\n200 arrive vm0 vcpus=2 rate=100\n", "arrives twice"},
	{"re-arrival after depart", traceHdr + "100 arrive vm0 vcpus=2 rate=100\n200 depart vm0\n300 arrive vm0 vcpus=2 rate=100\n", "arrives twice"},
	{"phase missing rate", traceHdr + "100 phase vm0\n", "phase needs"},
	{"phase before arrival", traceHdr + "100 phase vm0 rate=100\n", "has not arrived"},
	{"phase after depart", traceHdr + "100 arrive vm0 vcpus=2 rate=100\n200 depart vm0\n300 phase vm0 rate=50\n", "has not arrived"},
	{"depart extra args", traceHdr + "100 depart vm0 extra\n", "no arguments"},
	{"depart before arrival", traceHdr + "100 depart vm0\n", "has not arrived"},
	{"double depart", traceHdr + "100 arrive vm0 vcpus=2 rate=100\n200 depart vm0\n300 depart vm0\n", "has not arrived"},
}

// goodTraces are valid inputs beyond the header-only one: equal
// timestamps (ties keep file order), comments and blank lines after the
// header, and the inclusive top of the rate range.
var goodTraces = []string{
	traceHdr + "\n# comment\n100 arrive vm0 vcpus=2 rate=100\n100 arrive vm1 vcpus=4 rate=50\n100 phase vm0 rate=0\n200 depart vm1\n",
	traceHdr + "100 arrive vm0 vcpus=2 rate=1e9\n",
}

func TestParseTraceErrors(t *testing.T) {
	for _, tc := range badTraces {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTrace(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ParseTrace(%q): want error containing %q", tc.in, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseTrace(%q) = %v, want error containing %q", tc.in, err, tc.wantErr)
			}
		})
	}
	events, err := ParseTrace(strings.NewReader(goodTraces[0]))
	if err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(events))
	}
	if _, err := ParseTrace(strings.NewReader(goodTraces[1])); err != nil {
		t.Fatalf("rate=1e9 rejected: %v", err)
	}
}

// FuzzParseTrace holds ParseTrace to its contract on any input: it
// returns an error rather than panicking, and a trace it accepts
// formats, parses back to the same events and formats to the same bytes
// again.
func FuzzParseTrace(f *testing.F) {
	f.Add(traceHdr)
	for _, in := range goodTraces {
		f.Add(in)
	}
	for _, tc := range badTraces {
		f.Add(tc.in)
	}
	for _, tc := range hintTraces {
		f.Add(tc.in)
	}
	for _, tc := range badHintTraces {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		events, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := FormatTrace(&first, events); err != nil {
			t.Fatalf("accepted trace does not format: %v", err)
		}
		back, err := ParseTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("formatted trace rejected: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(events, back) {
			t.Fatalf("round trip changed the events:\n%+v\n%+v", events, back)
		}
		if err := FormatTrace(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second format differs:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// TestRunFleetRateRange checks that RunFleet rejects an unusable rate in
// a programmatic trace with an error, and runs a valid one whose mean
// gap is centuries long without panicking in a host worker.
func TestRunFleetRateRange(t *testing.T) {
	cfg := smallFleet("static", 0)
	for _, rate := range []float64{math.NaN(), math.Inf(1), 1e12, -1} {
		events := []Event{{At: 0, Kind: EventArrive, VM: "vm0", VCPUs: 2, RateRPS: rate}}
		if _, err := RunFleet(cfg, events); err == nil {
			t.Fatalf("RunFleet with rate %g: want error", rate)
		}
	}
	// Mean gaps of ~290 years: most first arrivals fall past MaxTime.
	var events []Event
	for i := 0; i < 8; i++ {
		vm := fmt.Sprintf("vm%d", i)
		events = append(events, Event{At: sim.Time(i) * sim.Millisecond, Kind: EventArrive, VM: vm, VCPUs: 1, RateRPS: 1.1e-10})
	}
	events = append(events, Event{At: sim.Second, Kind: EventPhase, VM: "vm0", RateRPS: 1.2e-10})
	res, err := RunFleet(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 8 || res.Load.Offered != 0 {
		t.Fatalf("placed %d, offered %d; want 8 VMs and no arrivals", res.Placed, res.Load.Offered)
	}
}

func TestPickHostPrefersIdleHost(t *testing.T) {
	epoch := 500 * sim.Millisecond
	probes := make([][]core.VMStat, 2)
	noExtra := []int{0, 0}
	var scratch pickScratch
	// Host 0 is saturated by two full-throttle competitors; host 1 idle.
	stats := [][]core.VMStat{
		{probeStat(4, 4, epoch), probeStat(4, 4, epoch)},
		{},
	}
	if got := pickHost(4, epoch, stats, probes, []int{8, 0}, noExtra, 2, &scratch); got != 1 {
		t.Fatalf("pickHost = %d, want idle host 1", got)
	}
	// All equal: ties break to the lower index.
	empty := [][]core.VMStat{{}, {}}
	if got := pickHost(4, epoch, empty, probes, noExtra, noExtra, 2, &scratch); got != 0 {
		t.Fatalf("pickHost on equal hosts = %d, want 0", got)
	}
	// Equal extendability, but host 0 took a placement the base snapshot
	// can't see yet: the committed correction breaks the tie to host 1.
	if got := pickHost(4, epoch, empty, probes, noExtra, []int{3, 0}, 2, &scratch); got != 1 {
		t.Fatalf("pickHost with stale-committed correction = %d, want 1", got)
	}
}

func TestNewHostRejectsBadConfig(t *testing.T) {
	if _, err := NewHost(0, HostConfig{PCPUs: 0, Policy: staticPolicy{}}); err == nil {
		t.Fatal("NewHost with 0 pCPUs: want error")
	}
	if _, err := NewHost(0, HostConfig{PCPUs: -3, Policy: staticPolicy{}}); err == nil {
		t.Fatal("NewHost with negative pCPUs: want error")
	}
	if _, err := NewHost(0, HostConfig{PCPUs: 4}); err == nil {
		t.Fatal("NewHost without a policy: want error")
	}
	if _, err := NewHost(0, HostConfig{PCPUs: 4, Policy: hotplugPolicy{}}); err != nil {
		t.Fatalf("NewHost with the hotplug mechanism: %v", err)
	}
}

func smallFleet(policy string, workers int) FleetConfig {
	return FleetConfig{
		Hosts:        2,
		PCPUsPerHost: 4,
		Policy:       policy,
		Seed:         11,
		Horizon:      3 * sim.Second,
		Epoch:        500 * sim.Millisecond,
		Drain:        sim.Second,
		SLO:          20 * sim.Millisecond,
		Workers:      workers,
	}
}

// TestRunFleetRejectsOversizedVM: a VM larger than guest.MaxVCPUs (the
// freeze mask's width) fails the run with an error instead of booting.
func TestRunFleetRejectsOversizedVM(t *testing.T) {
	cfg := smallFleet("static", 1)
	tcfg := DefaultTraceConfig(cfg.Horizon)
	tcfg.VCPUChoices = []int{guest.MaxVCPUs + 1}
	_, err := RunFleet(cfg, GenTrace(tcfg, cfg.Seed))
	if err == nil || !strings.Contains(err.Error(), "65 vCPUs") {
		t.Fatalf("RunFleet with 65-vCPU VMs: err = %v, want a 65 vCPUs error", err)
	}
}

// TestRunFleetFaultUnwinds: one 65-vCPU arrival mid-trace faults
// exactly one host while the others run on. At every worker count
// RunFleet must return the same error, without hanging, and every
// executor goroutine must have exited.
func TestRunFleetFaultUnwinds(t *testing.T) {
	cfg := smallFleet("static", 0)
	events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)
	bad := -1
	for i, ev := range events {
		if ev.Kind == EventArrive && ev.At >= cfg.Horizon/2 {
			bad = i
			break
		}
	}
	if bad < 0 {
		t.Fatal("trace has no arrival in its second half")
	}
	events[bad].VCPUs = guest.MaxVCPUs + 1

	baseline := runtime.NumGoroutine()
	var want string
	for _, workers := range []int{1, 2, 4} {
		cfg.Workers = workers
		done := make(chan error, 1)
		go func() {
			_, err := RunFleet(cfg, events)
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(time.Minute):
			t.Fatalf("workers=%d: RunFleet still running a minute after the fault", workers)
		}
		if err == nil || !strings.Contains(err.Error(), "65 vCPUs") {
			t.Fatalf("workers=%d: err = %v, want the 65 vCPUs fault", workers, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q as at one worker", workers, err, want)
		}
		// The goroutine that sent err, and the executor's workers after
		// their WaitGroup release, exit on their own; none may linger.
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines left, %d before the run", workers, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestRunFleetSmoke(t *testing.T) {
	cfg := smallFleet("vscale", 0)
	tcfg := DefaultTraceConfig(cfg.Horizon)
	events := GenTrace(tcfg, cfg.Seed)
	res, err := RunFleet(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	arrives := 0
	for _, ev := range events {
		if ev.Kind == EventArrive {
			arrives++
		}
	}
	if res.Placed != arrives {
		t.Fatalf("placed %d of %d arrivals", res.Placed, arrives)
	}
	if res.Load.Offered == 0 || res.Load.Replies == 0 {
		t.Fatalf("no traffic: %+v", res.Load)
	}
	if res.Load.Done != res.Load.Offered {
		t.Fatalf("in-flight after drain: done %d of %d", res.Load.Done, res.Load.Offered)
	}
	if res.Attainment < 0 || res.Attainment > 1 {
		t.Fatalf("attainment %g out of range", res.Attainment)
	}
	if res.Hist.Count() != res.Load.Replies {
		t.Fatalf("hist count %d != replies %d", res.Hist.Count(), res.Load.Replies)
	}
	if res.AvgHostUtil <= 0 || res.AvgHostUtil > 1 {
		t.Fatalf("util %g out of range", res.AvgHostUtil)
	}
	if res.CentralSweep <= 0 {
		t.Fatal("central sweep cost missing")
	}
	if res.Reconfigs == 0 {
		t.Fatal("vScale fleet under churn should reconfigure at least once")
	}
	if res.CostVCPUSeconds <= 0 {
		t.Fatal("provisioned cost missing")
	}
}

func TestRunFleetRejectsUnknownPolicy(t *testing.T) {
	cfg := smallFleet("no-such-policy", 0)
	if _, err := RunFleet(cfg, nil); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("RunFleet with unknown policy: got %v", err)
	}
}

func TestRunFleetSerialParallelIdentical(t *testing.T) {
	for _, policy := range PolicyNames() {
		cfg1 := smallFleet(policy, 1)
		cfg8 := smallFleet(policy, 8)
		events := GenTrace(DefaultTraceConfig(cfg1.Horizon), cfg1.Seed)
		r1, err := RunFleet(cfg1, events)
		if err != nil {
			t.Fatal(err)
		}
		r8, err := RunFleet(cfg8, events)
		if err != nil {
			t.Fatal(err)
		}
		// Histograms don't compare with reflect through pointers; check
		// the moments, then drop them for the full struct comparison.
		if r1.Hist.String() != r8.Hist.String() || r1.Hist.Sum() != r8.Hist.Sum() {
			t.Fatalf("%s: histograms differ across worker counts", policy)
		}
		r1.Hist, r8.Hist = nil, nil
		if !reflect.DeepEqual(r1, r8) {
			t.Fatalf("%s: results differ across worker counts:\n1: %+v\n8: %+v", policy, r1, r8)
		}
	}
}

func TestPoliciesShareChurnButDiverge(t *testing.T) {
	events := GenTrace(DefaultTraceConfig(3*sim.Second), 11)
	static, err := RunFleet(smallFleet("static", 0), events)
	if err != nil {
		t.Fatal(err)
	}
	vsc, err := RunFleet(smallFleet("vscale", 0), events)
	if err != nil {
		t.Fatal(err)
	}
	// Same churn trace: identical placements and event counts.
	if !reflect.DeepEqual(static.Placements, vsc.Placements) {
		t.Fatal("policies saw different placements for the same trace")
	}
	if static.Placed != vsc.Placed || static.Departed != vsc.Departed {
		t.Fatal("policies saw different churn")
	}
	// Static never reconfigures; vScale does.
	if static.Reconfigs != 0 {
		t.Fatalf("static fleet reconfigured %d times", static.Reconfigs)
	}
	if vsc.Reconfigs == 0 {
		t.Fatal("vscale fleet never reconfigured")
	}
}
