// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation, plus the ablations listed in DESIGN.md. Each bench runs a
// reduced-scale version of the corresponding experiment; the full-scale
// tables are produced by cmd/vscale-experiments. Reported custom metrics
// carry the experiment's headline number (e.g. normalized execution
// time, reply rate) so regressions in the reproduced *shape* show up in
// benchmark diffs, not just in wall time.
package vscale

import (
	"testing"

	"vscale/internal/cluster"
	"vscale/internal/experiments"
	"vscale/internal/runner"
	"vscale/internal/scenario"
	"vscale/internal/sim"
)

// serial runs every benchmarked experiment on one worker so the bench
// numbers measure the simulation, not the pool.
var serial = runner.Options{Workers: 1}

func BenchmarkFigure1Motivation(b *testing.B) {
	var waste float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Motivation(serial, 3*sim.Second)
		if err != nil {
			b.Fatal(err)
		}
		waste = r.SpinWasteFrac["Xen/Linux"] - r.SpinWasteFrac["dedicated"]
	}
	b.ReportMetric(waste*100, "spinwaste%")
}

func BenchmarkTable1ChannelRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(100)
		if err != nil {
			b.Fatal(err)
		}
		if r.Total != 910*sim.Nanosecond {
			b.Fatal("channel read cost drifted")
		}
	}
}

func BenchmarkFigure4Libxl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure4([]int{1, 25, 50}, 300)
		if r.Stats[2][50][1] < 5 {
			b.Fatal("net-I/O monitoring cost implausibly low")
		}
	}
}

func BenchmarkTable2InterruptQuiescence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if r.After.TimerPerSec[3] > 1 {
			b.Fatal("frozen vCPU not quiescent")
		}
	}
}

func BenchmarkTable3FreezeCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table3()
		if r.MeasuredMaster != 2100*sim.Nanosecond {
			b.Fatal("freeze cost drifted")
		}
	}
}

func BenchmarkFigure5Hotplug(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(60)
		if err != nil {
			b.Fatal(err)
		}
		if r.Remove["v-2.6.32"].Quantile(0.5) < 5 {
			b.Fatal("hotplug latency drifted")
		}
	}
}

// npbBenchPair runs one app under baseline and vScale and reports the
// normalized execution time as a custom metric.
func npbBenchPair(b *testing.B, app string, spin uint64, vcpus int) {
	b.Helper()
	var norm float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.NPBSweep(serial, vcpus, []string{app},
			[]scenario.Mode{scenario.Baseline, scenario.VScale}, []uint64{spin})
		if err != nil {
			b.Fatal(err)
		}
		norm = r.Normalized(app, scenario.VScale, spin)
	}
	b.ReportMetric(norm, "normexec")
}

func BenchmarkFigure6NPB4(b *testing.B) { npbBenchPair(b, "cg", 30_000_000_000, 4) }
func BenchmarkFigure7NPB8(b *testing.B) { npbBenchPair(b, "cg", 30_000_000_000, 8) }

func BenchmarkFigure8Trace(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(serial, 5*sim.Second)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		sum := 0
		for _, p := range r.Traces[4] {
			sum += p.Active
			n++
		}
		avg = float64(sum) / float64(n)
	}
	b.ReportMetric(avg, "avgactive")
}

func BenchmarkFigure9WaitingTime(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.NPBSweep(serial, 4, []string{"sp"},
			[]scenario.Mode{scenario.Baseline, scenario.VScale}, []uint64{30_000_000_000})
		if err != nil {
			b.Fatal(err)
		}
		base := r.Runs["sp"][scenario.Baseline][30_000_000_000]
		vs := r.Runs["sp"][scenario.VScale][30_000_000_000]
		bw := float64(base.Wait) / float64(base.Exec)
		vw := float64(vs.Wait) / float64(vs.Exec)
		reduction = (1 - vw/bw) * 100
	}
	b.ReportMetric(reduction, "wait%cut")
}

func BenchmarkFigure10NPBIPI(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.NPBSweep(serial, 4, []string{"sp"},
			[]scenario.Mode{scenario.Baseline}, []uint64{0})
		if err != nil {
			b.Fatal(err)
		}
		rate = r.Runs["sp"][scenario.Baseline][0].IPIRate
	}
	b.ReportMetric(rate, "ipis/vcpu/s")
}

func parsecBenchPair(b *testing.B, app string, vcpus int) {
	b.Helper()
	var norm float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.ParsecSweep(serial, vcpus, []string{app},
			[]scenario.Mode{scenario.Baseline, scenario.VScale})
		if err != nil {
			b.Fatal(err)
		}
		norm = r.Normalized(app, scenario.VScale)
	}
	b.ReportMetric(norm, "normexec")
}

func BenchmarkFigure11Parsec4(b *testing.B) { parsecBenchPair(b, "dedup", 4) }
func BenchmarkFigure12Parsec8(b *testing.B) { parsecBenchPair(b, "dedup", 8) }

func BenchmarkFigure13ParsecIPI(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.ParsecSweep(serial, 4, []string{"dedup"},
			[]scenario.Mode{scenario.Baseline})
		if err != nil {
			b.Fatal(err)
		}
		rate = r.Runs["dedup"][scenario.Baseline].IPIRate
	}
	b.ReportMetric(rate, "ipis/vcpu/s")
}

func BenchmarkFigure14Apache(b *testing.B) {
	var peakGain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Apache(serial, []float64{6, 8}, 6*sim.Second,
			[]scenario.Mode{scenario.Baseline, scenario.VScale})
		if err != nil {
			b.Fatal(err)
		}
		peakGain = r.PeakReply(scenario.VScale) - r.PeakReply(scenario.Baseline)
	}
	b.ReportMetric(peakGain, "peakK+")
}

func BenchmarkAblationWeightOnly(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationWeightOnly(serial, "cg")
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(r.Exec[1]) / float64(r.Exec[0]) // VCPU-Bal / vScale
	}
	b.ReportMetric(ratio, "vcpubal/vscale")
}

func BenchmarkAblationHotplugPath(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationHotplugPath(serial, "cg")
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(r.Exec[1]) / float64(r.Exec[0]) // hotplug / balancer
	}
	b.ReportMetric(ratio, "hotplug/balancer")
}

func BenchmarkAblationDaemonPeriod(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationDaemonPeriod(serial, "cg",
			[]sim.Time{10 * sim.Millisecond, sim.Second})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(r.Exec[1]) / float64(r.Exec[0]) // slow / fast daemon
	}
	b.ReportMetric(ratio, "1s/10ms")
}

func BenchmarkAblationPerVMWeight(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPerVMWeight(serial, "cg")
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(r.Exec[1]) / float64(r.Exec[0]) // per-vCPU / per-VM
	}
	b.ReportMetric(ratio, "pervcpu/pervm")
}

func BenchmarkAblationCeilMargin(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationCeilMargin(serial, "cg")
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(r.Exec[1]) / float64(r.Exec[0]) // pure ceil / margin
	}
	b.ReportMetric(ratio, "pureceil/margin")
}

func BenchmarkAblationSchedulerGenerality(b *testing.B) {
	var vrtSpeedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSchedulerGenerality(serial, "cg")
		if err != nil {
			b.Fatal(err)
		}
		vrtSpeedup = float64(r.Exec[2]) / float64(r.Exec[3])
	}
	b.ReportMetric(vrtSpeedup, "vrtspeedup")
}

func BenchmarkExtensionAdaptiveTeam(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtensionAdaptiveTeam(serial, "cg")
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(r.FixedExec) / float64(r.Adapted)
	}
	b.ReportMetric(speedup, "adaptspeedup")
}

// BenchmarkRunFleet measures the bounded-lag fleet executor end to end:
// a 64-host fleet under light churn, one worker, placement recording
// off. allocs/op covers the executor, the router's boundary snapshots
// and the simulated stack on every host (xen, guest, workloads). It
// runs without a telemetry collector, so no telemetry code runs;
// TestCollectorSteadyStateAllocs in internal/telemetry gates the
// exporter's allocations instead.
func BenchmarkRunFleet(b *testing.B) {
	const hosts = 64
	horizon := 2 * sim.Second
	tcfg := cluster.DefaultTraceConfig(horizon)
	tcfg.InitialVMs = hosts
	tcfg.ArrivalEvery = horizon / sim.Time(2*hosts)
	tcfg.RateChoices = []float64{50, 100, 200}
	seed := runner.DeriveSeed(7, hosts)
	events := cluster.GenTrace(tcfg, seed)
	recordOff := false
	var att float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunFleet(cluster.FleetConfig{
			Hosts:            hosts,
			PCPUsPerHost:     4,
			Policy:           "vscale",
			Seed:             seed,
			Horizon:          horizon,
			SLO:              50 * sim.Millisecond,
			Workers:          1,
			RecordPlacements: &recordOff,
		}, events)
		if err != nil {
			b.Fatal(err)
		}
		att = res.Attainment
	}
	b.ReportMetric(att*100, "slo%")
}

// BenchmarkCheckpointRestore measures the checkpoint/restore layer on
// the same 64-host fleet BenchmarkRunFleet drives: capture the warm
// prefix once outside the timed loop, then time one encode + decode +
// restored measured window per iteration — the marginal cost of adding
// one more policy variant to a warm-forked scoreboard. The snapshot
// size lands as a custom metric so format growth is tracked alongside
// wall time.
func BenchmarkCheckpointRestore(b *testing.B) {
	const hosts = 64
	horizon := 2 * sim.Second
	tcfg := cluster.DefaultTraceConfig(horizon)
	tcfg.InitialVMs = hosts
	tcfg.ArrivalEvery = horizon / sim.Time(2*hosts)
	tcfg.RateChoices = []float64{50, 100, 200}
	seed := runner.DeriveSeed(7, hosts)
	events := cluster.GenTrace(tcfg, seed)
	recordOff := false
	cfg := cluster.FleetConfig{
		Hosts:            hosts,
		PCPUsPerHost:     4,
		Policy:           "vscale",
		Seed:             seed,
		Horizon:          horizon,
		SLO:              50 * sim.Millisecond,
		Workers:          1,
		WarmEpochs:       2,
		RecordPlacements: &recordOff,
	}
	cp, err := cluster.CaptureWarmPrefix(cfg, events)
	if err != nil {
		b.Fatal(err)
	}
	data, err := cp.Encode()
	if err != nil {
		b.Fatal(err)
	}
	var att float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.Encode(); err != nil {
			b.Fatal(err)
		}
		loaded, err := cluster.DecodeCheckpoint(data)
		if err != nil {
			b.Fatal(err)
		}
		res, err := cluster.RunFleetFork(cfg, events, loaded)
		if err != nil {
			b.Fatal(err)
		}
		att = res.Attainment
	}
	b.ReportMetric(att*100, "slo%")
	b.ReportMetric(float64(len(data)), "snapshot-bytes")
}

// BenchmarkEngineThroughput measures the raw simulator event rate — the
// substrate's own performance, useful when profiling the harness.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 100000 {
				eng.After(sim.Microsecond, "tick", tick)
			}
		}
		eng.After(0, "start", tick)
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
