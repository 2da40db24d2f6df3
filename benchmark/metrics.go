package main

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units; the smoke test
// holds the two together.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"wall_s", "s"},                 // wall time of one pass over the fixed batch
	{"sim_s_per_wall_s", "sim_s/s"}, // simulated host-seconds per wall second
	{"cpu_s", "s"},                  // process user+sys time of one pass
	{"setup_s", "s"},                // time in the set-up calls of one pass
	{"peak_rss_mb", "MiB"},          // peak resident set of the workload's process
	{"allocs_per_sim_s", "1/sim_s"}, // heap allocations per simulated host-second
	{"fail_frac", "ratio"},          // failed or mismatched cells over cells attempted
	{"paper_err", "ratio"},          // error against the paper's values (npb, httpd)
}

// gated are the end-to-end metrics every workload reports and a change
// is judged on. fail_frac is 0 on a correct run and reaches the result
// as its failed/attempted counts; paper_err exists for two workloads
// only and moves only when simulated results do.
var gated = map[string]bool{
	"wall_s": true, "sim_s_per_wall_s": true, "cpu_s": true,
	"setup_s": true, "peak_rss_mb": true, "allocs_per_sim_s": true,
}

// perLayer are the traced run's metrics, named by layer. Shares are
// fractions of the traced pass's CPU samples (self_share) or sampled
// allocations (alloc_share), attributed by layerRules.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.cancel_frac", "ratio"},
	{"sim.pending_max", "count"},
	{"sim.self_share", "ratio"},
	{"xen.events", "count"},
	{"xen.self_share", "ratio"},
	{"xen.vscale_ticks", "count"},
	{"xen.vm_wait_s", "sim_s"},
	{"guest.events", "count"},
	{"guest.self_share", "ratio"},
	{"guest.alloc_share", "ratio"},
	{"guest.resched_ipis", "count"},
	{"guest.context_switches", "count"},
	{"guest.thread_migrates", "count"},
	{"guest.device_irqs", "count"},
	{"guest.daemon_reads", "count"},
	{"workload.events", "count"},
	{"workload.self_share", "ratio"},
	{"workload.alloc_share", "ratio"},
	{"workload.httpd_replies", "count"},
	{"workload.httpd_errors", "count"},
	{"loadgen.offered", "count"},
	{"loadgen.replies", "count"},
	{"loadgen.errors", "count"},
	{"loadgen.in_flight", "count"},
	{"loadgen.self_share", "ratio"},
	{"cluster.host_sim_s", "s"},
	{"cluster.control_plane_s", "s"},
	{"cluster.run_epoch_share", "ratio"},
	{"cluster.self_share", "ratio"},
	{"cluster.alloc_share", "ratio"},
	{"cluster.placed", "count"},
	{"cluster.reconfigs", "count"},
	{"elasticity.self_share", "ratio"},
	{"elasticity.migrations", "count"},
	{"elasticity.replicas_created", "count"},
	{"elasticity.replica_failures", "count"},
	{"checkpoint.capture_s", "s"},
	{"checkpoint.encode_s", "s"},
	{"checkpoint.decode_s", "s"},
	{"checkpoint.restore_s", "s"},
	{"checkpoint.fork_s", "s"},
	{"checkpoint.snapshot_bytes", "bytes"},
	{"checkpoint.self_share", "ratio"},
	{"checkpoint.alloc_share", "ratio"},
	{"telemetry.bytes", "bytes"},
	{"telemetry.records", "count"},
	{"telemetry.write_s", "s"},
	{"telemetry.self_share", "ratio"},
	{"telemetry.alloc_share", "ratio"},
	{"core.self_share", "ratio"},
	{"core.alloc_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.num_gc", "count"},
	{"runtime.heap_peak_mb", "MiB"},
	{"runtime.alloc_mb", "MiB"},
	{"bench.cells", "count"},
	{"bench.cell_wall_p50_ms", "ms"},
	{"bench.cell_wall_p90_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// speedupMetric is reported only where a parallel speedup means
// something (speedupAllowed), so it is not in perLayer, whose metrics
// every traced run emits.
var speedupMetric = metricDef{"cluster.executor_speedup_w2", "ratio"}

// selfShareLayers and allocShareLayers are the layers whose profile
// shares perLayer reports.
var (
	selfShareLayers  = []string{"sim", "xen", "guest", "workload", "loadgen", "cluster", "elasticity", "checkpoint", "telemetry", "core"}
	allocShareLayers = []string{"guest", "workload", "cluster", "checkpoint", "telemetry", "core"}
)

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer, {speedupMetric}} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
