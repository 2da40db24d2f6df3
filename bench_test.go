// Benchmarks for per-layer profiling with `go test -bench`: the fleet
// executor end to end, the checkpoint/restore round trip and the raw
// event rate (see docs/performance.md). CI runs each once as a smoke
// test and gates none of their numbers. The repository's benchmark is
// the benchmark/ module (BENCHMARK.json); the paper's tables and
// figures are checked by the tests in internal/experiments.
package vscale

import (
	"testing"

	"vscale/internal/cluster"
	"vscale/internal/runner"
	"vscale/internal/sim"
)

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
