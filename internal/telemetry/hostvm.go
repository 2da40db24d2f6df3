package telemetry

import (
	"vscale/internal/guest"
	"vscale/internal/loadgen"
	"vscale/internal/sim"
	"vscale/internal/trace"
	"vscale/internal/xen"
)

// The families below are the ones every simulated host exports, whether
// it is vscalesim's single host or one host of the cluster fleet: each
// is named, described and labelled here only. The caller samples while
// the host's engine is parked at a collection boundary, and every method
// only reads, so collection cannot perturb the simulation. Once a run's
// series exist, an epoch through these methods allocates nothing.

// Clock writes the epoch's virtual time and its index within the run.
func (c *Collector) Clock(now sim.Time) {
	c.reg.GaugeSeries("vscale_sim_seconds",
		"Virtual time of the simulation at this collection epoch.").Set(now.Seconds())
	c.reg.GaugeSeries("vscale_telemetry_epoch",
		"Collection epoch index within this run.").Set(float64(c.epoch))
}

// SLO writes the per-request latency objective.
func (c *Collector) SLO(ms float64) {
	c.reg.GaugeSeries("vscale_fleet_slo_ms",
		"The per-request latency objective, milliseconds.").Set(ms)
}

// Host writes the pool-level families of one host, labelled
// host=<host>. With a tracer it adds the host's wakeup, lock-holder
// preemption, steal and IPI totals, read from the tracer's per-vCPU
// accumulators.
func (c *Collector) Host(host string, pool *xen.Pool, tr *trace.Tracer) {
	reg := c.reg
	reg.GaugeSeries("vscale_host_util_ratio",
		"pCPU busy fraction of the host since boot.", "host", host).Set(pool.Util())
	reg.CounterSeries("vscale_host_idle_seconds_total",
		"Summed pCPU idle time of the host.", "host", host).Set(pool.Idle().Seconds())
	reg.CounterSeries("vscale_host_sched_ticks_total",
		"vScale extendability recalculations on the host.", "host", host).Set(float64(pool.VScaleTicks))
	reg.CounterSeries("vscale_host_engine_events_total",
		"Simulation events processed by the host's engine.", "host", host).Set(float64(pool.Engine().Processed))

	var switches uint64
	runq := 0
	for _, p := range pool.PCPUs() {
		switches += p.Switches
		runq += p.QueueLen()
	}
	reg.CounterSeries("vscale_host_context_switches_total",
		"vCPU context switches across the host's pCPUs.", "host", host).Set(float64(switches))
	reg.GaugeSeries("vscale_host_runq_len",
		"Runnable vCPUs queued across the host's pCPUs.", "host", host).Set(float64(runq))

	if tr == nil {
		return
	}
	tot := tr.Totals()
	reg.CounterSeries("vscale_host_wakeups_total",
		"RUNNABLE-to-RUN transitions across the host's vCPUs.", "host", host).Set(float64(tot.Wakeups))
	reg.CounterSeries("vscale_host_lhp_total",
		"Lock-holder preemption incidents on the host.", "host", host).Set(float64(tot.LHPs))
	reg.CounterSeries("vscale_host_lhp_seconds_total",
		"Total time vCPUs spent descheduled while holding a lock.", "host", host).Set(tot.LHPTime.Seconds())
	reg.CounterSeries("vscale_host_steals_total",
		"Runqueue steals to idle pCPUs on the host.", "host", host).Set(float64(tot.Steals))
	reg.CounterSeries("vscale_host_ipis_total",
		"Inter-vCPU IPIs delivered on the host.", "host", host).Set(float64(tot.IPIs))
}

// VM writes the families of the VM whose guest kernel is k, labelled
// host=<host>,vm=<vm>. policyOps counts the scaling actions a control
// plane applied on top of the guest daemon's own decisions. gen is the
// VM's open-loop load generator; without one (nil) the request families
// are left out.
func (c *Collector) VM(host, vm string, k *guest.Kernel, policyOps uint64, gen *loadgen.Generator) {
	reg := c.reg
	dom := k.Domain()
	labels := []string{"host", host, "vm", vm}
	reg.GaugeSeries("vscale_vm_vcpus",
		"vCPUs provisioned to the VM.", labels...).Set(float64(dom.VCPUCount()))
	reg.GaugeSeries("vscale_vm_active_vcpus",
		"vCPUs the guest balancer currently keeps unfrozen.", labels...).Set(float64(k.ActiveVCPUs()))
	reg.CounterSeries("vscale_vm_cpu_seconds_total",
		"CPU time consumed by the VM's vCPUs.", labels...).Set(dom.TotalRunTime.Seconds())
	reg.CounterSeries("vscale_vm_wait_seconds_total",
		"Scheduling delay accumulated by the VM's vCPUs.", labels...).Set(dom.TotalWaitTime.Seconds())

	var credits sim.Time
	for i := 0; i < dom.VCPUCount(); i++ {
		credits += dom.VCPU(i).Credits()
	}
	reg.GaugeSeries("vscale_vm_credit_ns",
		"Summed credit-scheduler balance of the VM's vCPUs, virtual ns.", labels...).Set(float64(credits))

	_, decisions := k.DaemonStats()
	reg.CounterSeries("vscale_vm_reconfigs_total",
		"Scaling actions taken by the VM's daemon or the control-plane policy.",
		labels...).Set(float64(decisions + policyOps))

	if gen == nil {
		return
	}
	reg.GaugeSeries("vscale_vm_offered_rps",
		"Current offered request rate of the VM's load generator.", labels...).Set(gen.Rate())
	st := gen.Stats()
	reg.CounterSeries("vscale_vm_offered_requests_total",
		"Requests injected into the VM by the open-loop generator.", labels...).Set(float64(st.Offered))
	reg.CounterSeries("vscale_vm_replies_total",
		"Replies delivered within the server timeout.", labels...).Set(float64(st.Replies))
	reg.CounterSeries("vscale_vm_errors_total",
		"Request timeouts and backlog drops.", labels...).Set(float64(st.Errors))
	reg.CounterSeries("vscale_vm_slo_ok_total",
		"Replies delivered within the SLO.", labels...).Set(float64(st.SLOOk))
	reg.SummarySeries("vscale_vm_reply_latency_ms",
		"Reply latency of the VM's requests, milliseconds.", labels...).
		SetFromHistogram(gen.Hist(), 0.5, 0.95, 0.99)
}
