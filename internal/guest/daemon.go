package guest

import (
	"vscale/internal/core"
	"vscale/internal/costmodel"
	"vscale/internal/sim"
	"vscale/internal/xen"
)

// daemon is the vScale user-space daemon: a real-time task pinned to
// vCPU0 that polls the VM's CPU extendability through the vScale channel
// every period and instructs the balancer to freeze or unfreeze vCPUs.
// It is modelled as periodic highest-priority work on vCPU0 (the paper
// runs it in the RT scheduling class, which likewise preempts all
// fair-share threads), so its per-period cost lands on vCPU0 exactly as
// in Table 1.
type daemon struct {
	k   *Kernel
	gov *core.Governor

	// reconfiguring marks an in-flight slow reconfiguration (the
	// hotplug-path ablation); new decisions are skipped meanwhile.
	reconfiguring bool

	// stopped halts the poll loop permanently (VM retirement): the next
	// timer firing becomes a no-op and does not re-arm.
	stopped bool

	// fire is the poll timer's body, bound once.
	fire func()

	// Reads counts channel polls, Decisions counts reconcile actions.
	Reads, Decisions uint64
}

func newDaemon(k *Kernel) *daemon {
	d := &daemon{
		k:   k,
		gov: core.NewGovernor(1, k.NCPUs(), k.NCPUs(), downHysteresis),
	}
	d.fire = func() {
		if d.stopped {
			return
		}
		d.poll()
		d.schedule()
	}
	return d
}

func (d *daemon) start() {
	d.schedule()
}

// StartVScaleDaemon starts the vScale daemon. It is the only way to
// start one: NewKernel builds a kernel without it. Called before Boot,
// it builds the daemon that Boot starts, so the first poll comes one
// period after Boot; on a booted kernel it starts the daemon at once,
// first poll one period after the call. A no-op when the daemon
// already exists.
func (k *Kernel) StartVScaleDaemon() {
	if k.daemon != nil {
		return
	}
	k.daemon = newDaemon(k)
	if k.booted {
		k.daemon.start()
	}
}

// SetReconfigDelay installs (or, with nil, removes) the dom0
// CPU-hotplug hook, the only way to route the daemon's resizes through
// that path instead of the vScale balancer (ablation A2 and the
// VCPU-Bal baseline): every freeze/unfreeze then takes effect only
// after fn's sampled latency, and a new decision is skipped while one
// is in flight.
func (k *Kernel) SetReconfigDelay(fn func(r *sim.Rand) sim.Time) {
	k.reconfigDelay = fn
}

func (d *daemon) schedule() {
	k := d.k
	period := k.cfg.VScale.Period
	if period <= 0 {
		period = 10 * 1000 * 1000 // 10 ms
	}
	k.addTimer(k.cpus[0], k.eng.Now()+period, d.fire)
}

// StopDaemon halts the vScale daemon's poll loop, if one is running. A
// retiring VM stops scaling itself so its frozen/active state no longer
// changes; the pending timer fires once more as a no-op and is not
// re-armed. Safe to call with the daemon disabled or already stopped.
func (k *Kernel) StopDaemon() {
	if k.daemon != nil {
		k.daemon.stopped = true
	}
}

// poll reads the vScale channel (syscall + hypercall, Table 1) and
// reconciles the active-vCPU count with the governor's target.
func (d *daemon) poll() {
	k := d.k
	master := k.cpus[0]
	d.Reads++
	k.chargeInterrupt(master, costmodel.ChannelRead)
	ext := k.dom.HypercallGetVScaleInfo()
	if ext.OptimalVCPUs == 0 {
		return // extension has not ticked yet
	}
	period := xen.VScalePeriod
	optimal := core.OptimalWithMargin(ext.Extend, period, k.cfg.VScale.CeilMargin, k.NCPUs())
	if k.cfg.VScale.WeightOnly {
		// VCPU-Bal policy (ablation A1): size from the weight-based fair
		// share only, ignoring consumption-derived slack.
		optimal = int((ext.FairShare + period - 1) / period)
		if optimal < 1 {
			optimal = 1
		}
	}
	// Re-sync only if someone else changed the vCPU count (ForceCurrent
	// resets the down-hysteresis, so it must not run on every poll).
	if d.gov.Current() != k.ActiveVCPUs() && !d.reconfiguring {
		d.gov.ForceCurrent(k.ActiveVCPUs())
	}
	target := d.gov.Observe(optimal)
	d.reconcile(target)
}

// reconcile resizes the active-vCPU set to target (Kernel.ResizeActive).
func (d *daemon) reconcile(target int) {
	k := d.k
	if d.reconfiguring {
		return
	}
	if delay := k.reconfigDelay; delay != nil && k.ActiveVCPUs() != target {
		// Hotplug-path ablation: apply one reconfiguration step after
		// the sampled latency, then allow the next decision.
		d.reconfiguring = true
		d.Decisions++
		dly := delay(k.rand)
		k.eng.After(dly, "guest/slow-reconfig", func() {
			d.reconfiguring = false
			k.tracer().Hotplug(k.eng.Now(), k.dom.ID(), dly, "reconfig")
			if n := k.ActiveVCPUs(); n > target {
				k.ResizeActive(n - 1)
			} else if n < target {
				k.ResizeActive(n + 1)
			}
			d.gov.ForceCurrent(k.ActiveVCPUs())
		})
		return
	}
	d.Decisions += uint64(k.ResizeActive(target))
}

// DaemonStats reports daemon activity (zero values when disabled).
func (k *Kernel) DaemonStats() (reads, decisions uint64) {
	if k.daemon == nil {
		return 0, 0
	}
	return k.daemon.Reads, k.daemon.Decisions
}
