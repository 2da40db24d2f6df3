package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"vscale/internal/core"
	"vscale/internal/runner"
	"vscale/internal/sim"
	"vscale/internal/telemetry"
)

// assertSameResult compares two FleetResults field for field (the
// histogram via its rendered moments, since it holds pointers).
func assertSameResult(t *testing.T, label string, want, got FleetResult) {
	t.Helper()
	if want.Hist.String() != got.Hist.String() || want.Hist.Sum() != got.Hist.Sum() {
		t.Fatalf("%s: histograms differ", label)
	}
	want.Hist, got.Hist = nil, nil
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results differ:\nwant %+v\ngot  %+v", label, want, got)
	}
}

// runSerial is the executor's differential oracle: RunFleet's semantics
// on one goroutine, with no pool, gates or run-ahead. Every host runs
// epoch k, then boundary k+1's control-plane work runs in the
// executor's barrier order (collection, then elasticity pass), then
// every host's policy pass. Placement keeps every boundary snapshot
// instead of the executor's retained window.
func runSerial(cfg FleetConfig, events []Event) (FleetResult, error) {
	plan, err := prepareFleet(&cfg, events)
	if err != nil {
		return FleetResult{}, err
	}
	pols, hosts, err := buildFleetHosts(&cfg)
	if err != nil {
		return FleetResult{}, err
	}
	res := FleetResult{Policy: cfg.Policy, Hosts: cfg.Hosts}
	rt := newFleetRouter(&cfg, plan, &res)
	if rt.el != nil {
		rt.el.attachHosts(hosts)
	}
	// stats[b] and committed[b] are the fleet snapshot at boundary b.
	stats := [][][]core.VMStat{make([][]core.VMStat, cfg.Hosts)}
	committed := [][]int{make([]int, cfg.Hosts)}
	for k := 0; k < plan.epochs(); k++ {
		batches, err := rt.routeEpoch(k, stats[baseFor(k)], committed[baseFor(k)])
		if err != nil {
			return res, err
		}
		epoch := plan.ends[k] - plan.starts[k]
		stats = append(stats, make([][]core.VMStat, cfg.Hosts))
		committed = append(committed, make([]int, cfg.Hosts))
		for i, h := range hosts {
			if batches != nil {
				h.scheduleRouted(batches[i])
			}
			if quiesceBefore(&cfg, k) {
				h.ScheduleQuiesce(plan.starts[k])
			}
			if err := h.RunEpoch(plan.ends[k]); err != nil {
				return res, err
			}
			stats[k+1][i], committed[k+1][i] = h.Snapshot(epoch), h.CommittedVCPUs()
			if k+1 == cfg.WarmEpochs {
				h.Arm()
			}
		}
		b := k + 1
		if b >= telemetryFrom(&cfg) {
			collectTelemetry(cfg.Telemetry, plan.ends[k], hosts, &res, cfg.SLO, rt)
		}
		if b > cfg.WarmEpochs {
			if rt.el != nil {
				rt.el.pass(b, plan.ends[k])
			}
			for i, h := range hosts {
				h.boundaryPolicy(pols[i], epoch)
			}
		}
	}
	for _, h := range hosts {
		h.StopAll()
		if err := h.RunEpoch(cfg.Horizon + cfg.Drain); err != nil {
			return res, err
		}
	}
	collectTelemetry(cfg.Telemetry, cfg.Horizon+cfg.Drain, hosts, &res, cfg.SLO, rt)
	return res, aggregate(&cfg, hosts, &res)
}

// assertMatchesSerial runs cfg through the executor at each worker
// count and through runSerial, and requires identical results.
func assertMatchesSerial(t *testing.T, label string, cfg FleetConfig, events []Event, workers ...int) {
	t.Helper()
	want, err := runSerial(cfg, events)
	if err != nil {
		t.Fatalf("%s serial: %v", label, err)
	}
	for _, w := range workers {
		cfg.Workers = w
		got, err := RunFleet(cfg, events)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, w, err)
		}
		assertSameResult(t, fmt.Sprintf("%s workers=%d", label, w), want, got)
	}
}

// thinFleet is a fleet of the given size under light load: one VM per
// host plus steady arrivals at low request rates, so executor overhead
// rather than policy quality dominates the run. Placement recording is
// off; at a thousand hosts the per-VM log is dead weight.
func thinFleet(hosts int) (FleetConfig, []Event) {
	horizon := 2 * sim.Second
	tcfg := DefaultTraceConfig(horizon)
	tcfg.InitialVMs = hosts
	tcfg.ArrivalEvery = horizon / sim.Time(2*hosts)
	tcfg.RateChoices = []float64{50, 100, 200}
	seed := runner.DeriveSeed(1, hosts)
	recordOff := false
	cfg := FleetConfig{
		Hosts:            hosts,
		PCPUsPerHost:     4,
		Policy:           "vscale",
		Seed:             seed,
		Horizon:          horizon,
		SLO:              50 * sim.Millisecond,
		RecordPlacements: &recordOff,
	}
	return cfg, GenTrace(tcfg, seed)
}

// TestExecutorMatchesSerial is the executor's differential check: for
// every policy, several seeds and both worker counts, RunFleet must
// reproduce the serial reference's FleetResult exactly. The thin
// fleets at 10 and 100 hosts put many more hosts than workers on the
// pool.
func TestExecutorMatchesSerial(t *testing.T) {
	for _, policy := range PolicyNames() {
		for _, seed := range []uint64{11, 23, 97} {
			cfg := smallFleet(policy, 1)
			cfg.Seed = seed
			events := GenTrace(DefaultTraceConfig(cfg.Horizon), seed)
			assertMatchesSerial(t, fmt.Sprintf("%s seed=%d", policy, seed), cfg, events, 1, 4)
		}
	}
	for _, hosts := range []int{10, 100} {
		cfg, events := thinFleet(hosts)
		assertMatchesSerial(t, fmt.Sprintf("%d hosts", hosts), cfg, events, 1, 2, 4, 8)
	}
}

// TestExecutorThousandHosts runs the thin fleet at a thousand hosts on
// one worker and on eight. The results must be identical, and with at
// least eight CPUs to run on, eight workers must finish at least four
// times sooner than one.
func TestExecutorThousandHosts(t *testing.T) {
	cfg, events := thinFleet(1000)
	run := func(workers int) (FleetResult, time.Duration) {
		cfg.Workers = workers
		start := time.Now()
		res, err := RunFleet(cfg, events)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, time.Since(start)
	}
	want, wall1 := run(1)
	got, wall8 := run(8)
	assertSameResult(t, "1000 hosts workers=8", want, got)
	if n := runtime.NumCPU(); n < 8 {
		t.Logf("%d CPUs: speedup gate skipped (workers=1 %v, workers=8 %v)", n, wall1, wall8)
		return
	}
	if speedup := wall1.Seconds() / wall8.Seconds(); speedup < 4 {
		t.Fatalf("workers=8 ran %.2fx faster than workers=1 (%v vs %v), want >= 4x", speedup, wall8, wall1)
	}
}

// TestExecutorMatchesSerialBarriers drives every boundary-barrier step
// at once — a warm prefix, a telemetry collector and the hybrid
// elasticity layer — and requires the serial reference's result and
// JSONL stream byte for byte.
func TestExecutorMatchesSerialBarriers(t *testing.T) {
	run := func(fleet func(FleetConfig, []Event) (FleetResult, error), workers int) (FleetResult, string) {
		var buf bytes.Buffer
		sink, err := telemetry.NewSink("", &buf)
		if err != nil {
			t.Fatal(err)
		}
		cfg := elasticFleet(t, "hybrid", workers)
		cfg.Policy = "pid"
		cfg.WarmEpochs = 2
		cfg.Telemetry = telemetry.NewCollector(sink, false, "policy", "pid")
		res, err := fleet(cfg, GenTrace(elasticTraceConfig(cfg.Horizon), cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Telemetry.Err(); err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	want, wantJSONL := run(runSerial, 1)
	for _, workers := range []int{1, 4} {
		got, gotJSONL := run(RunFleet, workers)
		assertSameResult(t, fmt.Sprintf("workers=%d", workers), want, got)
		if gotJSONL != wantJSONL {
			t.Fatalf("workers=%d: telemetry streams differ:\n--- serial ---\n%s\n--- executor ---\n%s", workers, wantJSONL, gotJSONL)
		}
	}
}

// TestBoundedLagStarvedHost slows one host far below the rest: the
// fleet must actually run ahead of it (asynchrony), never beyond the
// lag bound, and still produce the serial reference's answer.
func TestBoundedLagStarvedHost(t *testing.T) {
	var mu sync.Mutex
	cur := map[int]int{}
	maxSkew := 0
	testEpochHook = func(host, epoch int) {
		mu.Lock()
		cur[host] = epoch
		if len(cur) == 2 {
			if skew := cur[1] - cur[0]; skew > maxSkew {
				maxSkew = skew
			}
		}
		mu.Unlock()
		if host == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	defer func() { testEpochHook = nil }()

	cfg := smallFleet("vscale", 4)
	events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)
	got, err := RunFleet(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	testEpochHook = nil

	want, err := runSerial(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "starved host", want, got)

	// cur[i] is the last epoch host i *started*, so host 1 may lead the
	// straggler's start by lag+1 (the straggler's done count can be one
	// past its recorded start), never more.
	if maxSkew > lagEpochs+1 {
		t.Fatalf("lag bound violated: host 1 ran %d epochs ahead of the straggler (lag %d)", maxSkew, lagEpochs)
	}
	if maxSkew < 2 {
		t.Fatalf("no run-ahead observed (max skew %d); executor appears lockstepped", maxSkew)
	}
}

// TestRecordPlacementsOff checks the opt-out: counters survive, the
// per-VM placement log is elided.
func TestRecordPlacementsOff(t *testing.T) {
	off := false
	cfg := smallFleet("static", 0)
	cfg.RecordPlacements = &off
	events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)
	res, err := RunFleet(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placements != nil {
		t.Fatalf("RecordPlacements=false still recorded %d placements", len(res.Placements))
	}
	if res.Placed == 0 {
		t.Fatal("placement counter lost with recording off")
	}
}
