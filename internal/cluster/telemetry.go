package cluster

import (
	"strconv"

	"vscale/internal/loadgen"
	"vscale/internal/metrics"
	"vscale/internal/sim"
	"vscale/internal/telemetry"
)

// collectTelemetry samples every telemetry source of a running fleet at
// one collection-epoch boundary and closes the collector's epoch. It is
// called from the control plane while every host engine is parked at
// the boundary, so it reads state that nothing else is mutating, and it
// reads only — no RNG draws, no accounting syncs, no engine events —
// which is what keeps the simulation byte-identical with telemetry on
// or off. All walks follow the fixed host order and each host's VM
// admission order, so the rendered snapshot (and the JSONL stream) is a
// deterministic function of the seed.
// rt supplies the run-lifetime scratch histogram (the reusable
// fleet-histogram merge target, reset here) and, when the elasticity
// layer is on, its migration and replica-set gauges.
func collectTelemetry(col *telemetry.Collector, now sim.Time, hosts []*Host, res *FleetResult, slo sim.Time, rt *fleetRouter) {
	if col == nil {
		return
	}
	var scratch *metrics.Histogram
	if rt != nil {
		scratch = rt.telHist
	}
	reg := col.Registry()

	col.Clock(now)
	col.SLO(slo.Milliseconds())

	// Fleet-wide churn counters come from the control plane's own
	// accounting.
	reg.CounterSeries("vscale_fleet_vms_placed_total",
		"VM arrivals admitted by the placement controller.").Set(float64(res.Placed))
	reg.CounterSeries("vscale_fleet_vms_departed_total",
		"VM departures processed.").Set(float64(res.Departed))
	reg.CounterSeries("vscale_fleet_phase_changes_total",
		"Workload phase (request-rate) changes applied.").Set(float64(res.PhaseChanges))

	fleetHist := scratch
	if fleetHist == nil {
		fleetHist = metrics.NewHistogram(metrics.DefaultLatencyBuckets())
	} else {
		fleetHist.Reset()
	}
	var load loadgen.Stats
	var reconfigs uint64
	var cost float64
	for _, h := range hosts {
		host := strconv.Itoa(h.id)
		hostCost := h.ProvisionedVCPUSeconds()
		cost += hostCost
		col.Host(host, h.pool, h.cfg.Tracer)
		reg.GaugeSeries("vscale_host_active_vms",
			"Non-retired VMs resident on the host.", "host", host).Set(float64(h.ActiveVMs()))
		reg.GaugeSeries("vscale_host_committed_vcpus",
			"vCPUs provisioned across the host's non-retired VMs.", "host", host).Set(float64(h.CommittedVCPUs()))
		reg.CounterSeries("vscale_host_provisioned_vcpu_seconds_total",
			"Provisioned cost of the host's VMs: integral of active vCPUs over each VM's lifetime.",
			"host", host).Set(hostCost)
		if rt != nil && rt.el != nil {
			reg.CounterSeries("vscale_host_migrations_total",
				"Stop-and-copy cutovers committed with this host as the source.",
				"host", host).Set(float64(rt.el.hostMigs[h.id]))
		}

		for _, name := range h.order {
			vm := h.vms[name]
			_, decisions := vm.k.DaemonStats()
			reconfigs += decisions + vm.policyOps
			load.Add(vm.gen.Stats())
			_ = fleetHist.Merge(vm.gen.Hist())
			if vm.retired {
				// A departed VM's series freeze at their last values, like
				// a real exporter whose target went away mid-scrape cycle;
				// its terminal load still counts into the fleet aggregate.
				continue
			}
			col.VM(host, name, vm.k, vm.policyOps, vm.gen)
			reg.CounterSeries("vscale_vm_provisioned_vcpu_seconds_total",
				"Provisioned cost of the VM: integral of its active vCPU count since boot.",
				"host", host, "vm", name).Set(vm.k.ActiveVCPUSeconds())
		}
	}

	reg.CounterSeries("vscale_fleet_offered_requests_total",
		"Requests offered across the whole fleet.").Set(float64(load.Offered))
	reg.CounterSeries("vscale_fleet_replies_total",
		"Replies delivered across the whole fleet.").Set(float64(load.Replies))
	reg.CounterSeries("vscale_fleet_errors_total",
		"Errors across the whole fleet.").Set(float64(load.Errors))
	reg.CounterSeries("vscale_fleet_reconfigs_total",
		"Scaling actions taken across every VM of the fleet.").Set(float64(reconfigs))
	reg.CounterSeries("vscale_fleet_provisioned_vcpu_seconds_total",
		"Provisioned cost across the whole fleet, vCPU-seconds.").Set(cost)
	reg.GaugeSeries("vscale_fleet_slo_attainment_ratio",
		"Fraction of offered requests answered within the SLO so far.").Set(load.Attainment())
	reg.SummarySeries("vscale_fleet_reply_latency_ms",
		"Reply latency across the whole fleet, milliseconds.").
		SetFromHistogram(fleetHist, 0.5, 0.95, 0.99)

	if rt != nil && rt.el != nil {
		reg.CounterSeries("vscale_migration_downtime_seconds",
			"Modeled stop-and-copy downtime summed over committed migrations.").
			Set(res.MigrationDowntime.Seconds())
		for _, s := range rt.el.rs.Services() {
			_, ready, _ := s.Live()
			reg.GaugeSeries("vscale_service_ready_replicas",
				"Ready members (anchors and replicas) of the service.",
				"service", s.Name).Set(float64(ready))
		}
	}

	col.EpochDone(now)
}
