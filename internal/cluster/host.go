package cluster

import (
	"fmt"

	"vscale/internal/core"
	"vscale/internal/costmodel"
	"vscale/internal/dom0"
	"vscale/internal/guest"
	"vscale/internal/loadgen"
	"vscale/internal/scenario"
	"vscale/internal/sim"
	"vscale/internal/trace"
	"vscale/internal/workload/httpd"
	"vscale/internal/xen"
)

// hotplugModelVersion is the CPU-hotplug latency model hotplug-mechanism
// policies reconfigure through.
const hotplugModelVersion = "v-3.14.15"

// HostConfig parameterises one host of the fleet.
type HostConfig struct {
	// PCPUs is the size of the host's domU CPU pool.
	PCPUs int
	// Seed drives the host's engine and everything derived from it.
	Seed uint64
	// Policy is the fleet-wide VM scaling policy instance; the host
	// configures each VM's guest plumbing from Policy.Mechanism().
	Policy ScalingPolicy
	// SLO is the per-request latency objective for every VM's load.
	SLO sim.Time
	// Tracer, when non-nil, records the host's scheduling events.
	Tracer *trace.Tracer
}

// hostVM is one VM resident on a host.
type hostVM struct {
	name  string
	vcpus int
	seed  uint64
	dom   *xen.Domain
	k     *guest.Kernel
	srv   *httpd.Server
	gen   *loadgen.Generator
	// link is the VM's I/O link; linkBps its unthrottled rate. The
	// elasticity layer throttles links while the host sources a live
	// migration (SetLinkScale).
	link    *httpd.Link
	linkBps float64

	// lastConsumed checkpoints dom.TotalRunTime at the last snapshot so
	// per-epoch consumption is a simple delta; epochConsumed keeps the
	// latest delta for the policy observation.
	lastConsumed  sim.Time
	epochConsumed sim.Time
	// policyOps counts freeze/unfreeze actions applied by the control
	// plane's policy (ApplyTarget), the epoch-driven counterpart of the
	// daemon's Decisions counter.
	policyOps uint64
	// cost freezes the VM's provisioned vCPU-seconds at retirement.
	cost    float64
	retired bool
}

// Host is one Xen host of the fleet: a private engine, a domU pool, a
// dom0 cost model, and the VMs currently placed on it. All mutating
// calls must come either from the host's own engine callbacks or from
// the control plane between epochs (when the engine is parked at an
// epoch boundary); Hosts are not safe for concurrent use — the fleet
// runs at most one RunEpoch per host at a time.
type Host struct {
	id      int
	cfg     HostConfig
	mech    Mechanism
	eng     *sim.Engine
	pool    *xen.Pool
	d0      *dom0.Dom0
	hotplug costmodel.HotplugModel

	vms   map[string]*hostVM
	order []string // admission order, for deterministic iteration

	// armed is whether the policy's mechanisms are live (see Arm);
	// pauseFrom, when non-zero, marks the pending quiesce barrier: VMs
	// admitted at or after it boot with their load generators paused
	// (see ScheduleQuiesce).
	armed     bool
	pauseFrom sim.Time

	// linkScale throttles every live VM's I/O link while the host
	// sources a live migration (1 = unthrottled); pendingObs caches one
	// boundary's observations between the elasticity pass that samples
	// them and the policy pass that consumes them (Observations takes
	// each load window exactly once per epoch).
	linkScale  float64
	pendingObs []VMObservation

	// err records the first asynchronous fault raised inside engine
	// callbacks (RunEpoch returns it).
	err error
}

// NewHost builds an idle, disarmed host: the policy's mechanisms stay
// off until Arm. It rejects a non-positive pool size and a missing
// policy, and a hotplug-mechanism policy whose latency model is absent
// — misconfigurations a fleet caller should see as errors, not panics.
func NewHost(id int, cfg HostConfig) (*Host, error) {
	if cfg.PCPUs <= 0 {
		return nil, fmt.Errorf("cluster: host %d: need at least one pCPU, got %d", id, cfg.PCPUs)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("cluster: host %d: needs a scaling policy", id)
	}
	mech := cfg.Policy.Mechanism()
	var model costmodel.HotplugModel
	if mech.Hotplug {
		m, ok := costmodel.HotplugModelFor(hotplugModelVersion)
		if !ok {
			return nil, fmt.Errorf("cluster: host %d: hotplug model %s missing", id, hotplugModelVersion)
		}
		model = m
	}
	eng := sim.NewEngine(cfg.Seed)
	if cfg.Tracer != nil {
		eng.SetObserver(cfg.Tracer.SimEvent)
	}
	pool := xen.NewPool(eng, xen.DefaultConfig(cfg.PCPUs))
	pool.SetTracer(cfg.Tracer)
	h := &Host{
		id:        id,
		cfg:       cfg,
		mech:      mech,
		eng:       eng,
		pool:      pool,
		d0:        dom0.New(sim.NewRand(cfg.Seed ^ 0x5bd1e995)),
		hotplug:   model,
		vms:       map[string]*hostVM{},
		linkScale: 1,
	}
	pool.Start()
	return h, nil
}

// Engine exposes the host's private engine (tests and the fleet loop).
func (h *Host) Engine() *sim.Engine { return h.eng }

// ActiveVMs returns the number of non-retired VMs.
func (h *Host) ActiveVMs() int {
	n := 0
	for _, name := range h.order {
		if !h.vms[name].retired {
			n++
		}
	}
	return n
}

// CommittedVCPUs returns the vCPUs provisioned across non-retired VMs
// (the placement tie-breaker).
func (h *Host) CommittedVCPUs() int {
	n := 0
	for _, name := range h.order {
		if vm := h.vms[name]; !vm.retired {
			n += vm.vcpus
		}
	}
	return n
}

// ScheduleAdd schedules a VM arrival at ev.At on the host's engine. The
// placement decision was already made by the control plane; the VM
// boots at its exact trace time. seed roots the VM's private RNG
// streams — the fleet derives it from the VM's position in the churn
// trace, not from the host, so the offered load is a pure function of
// the trace however placement turns out.
func (h *Host) ScheduleAdd(ev Event, seed uint64) {
	h.eng.At(ev.At, "cluster/arrive", func() {
		if err := h.addVM(ev.VM, ev.VCPUs, ev.RateRPS, seed); err != nil {
			h.fail(err)
		}
	})
}

// ScheduleRate schedules a workload-phase change at ev.At.
func (h *Host) ScheduleRate(ev Event) {
	h.eng.At(ev.At, "cluster/phase", func() {
		if vm, ok := h.vms[ev.VM]; ok && !vm.retired {
			vm.gen.SetRate(ev.RateRPS)
		}
	})
}

// ScheduleRemove schedules a VM departure at ev.At.
func (h *Host) ScheduleRemove(ev Event) {
	h.eng.At(ev.At, "cluster/depart", func() { h.removeVM(ev.VM) })
}

// scheduleRouted schedules one epoch's routed churn batch onto the
// host's engine, in trace order — after any boundary policy IPIs and
// before the epoch runs, so the engine's event sequence does not depend
// on pacing. Called by the executor worker that holds the host, while
// the engine is parked at the epoch's start boundary.
func (h *Host) scheduleRouted(batch []routedEvent) {
	for _, r := range batch {
		switch r.ev.Kind {
		case EventArrive:
			h.ScheduleAdd(r.ev, r.seed)
		case EventPhase:
			h.ScheduleRate(r.ev)
		case EventDepart:
			h.ScheduleRemove(r.ev)
		}
	}
}

// boundaryPolicy runs one epoch-boundary policy pass with the host's
// own policy instance: observe every live VM in admission order
// (consuming the epoch's load window) and apply positive targets
// through the guest balancer. Daemon-driven policies return 0 — their
// in-guest mechanism is already steering.
func (h *Host) boundaryPolicy(pol ScalingPolicy, epoch sim.Time) {
	obs := h.EpochObservations(epoch)
	h.pendingObs = nil
	for _, o := range obs {
		if target := pol.Decide(o); target > 0 {
			h.ApplyTarget(o.VM, target)
		}
	}
}

// EpochObservations returns the boundary's per-VM observations,
// building (and caching) them on first call: the elasticity pass and
// the policy pass both read the same load window; the policy pass —
// always the boundary's last consumer — drains the cache.
func (h *Host) EpochObservations(epoch sim.Time) []VMObservation {
	if h.pendingObs == nil {
		h.pendingObs = h.Observations(epoch)
	}
	return h.pendingObs
}

// addVM boots a VM at the current engine time: a domain weighted per
// vCPU, a guest kernel wired per the policy's mechanism, an httpd
// server and its open-loop load generator.
func (h *Host) addVM(name string, vcpus int, rate float64, seed uint64) error {
	if _, dup := h.vms[name]; dup {
		return fmt.Errorf("cluster: host %d: duplicate VM %q", h.id, name)
	}
	if vcpus <= 0 || vcpus > guest.MaxVCPUs {
		return fmt.Errorf("cluster: host %d: VM %q with %d vCPUs, want 1..%d", h.id, name, vcpus, guest.MaxVCPUs)
	}
	dom := h.pool.AddDomain(name, scenario.WeightPerVCPU*float64(vcpus), vcpus, nil)

	gcfg := guest.DefaultConfig()
	gcfg.Seed = seed
	k := guest.NewKernel(dom, gcfg)

	hcfg := httpd.DefaultConfig()
	// Keep worker pools proportional to VM size so a 2-vCPU VM does not
	// carry a 32-thread pool.
	hcfg.Workers = 8 * vcpus
	link := httpd.NewLink(h.eng, hcfg.LinkBps)
	if h.linkScale != 1 {
		// The host is mid-migration: newcomers share the throttled link.
		link.SetBps(hcfg.LinkBps * h.linkScale)
	}
	srv, err := httpd.NewServer(k, link, hcfg)
	if err != nil {
		return err
	}
	gen := loadgen.New(h.eng, srv, sim.NewRand(gcfg.Seed^0x9e3779b9), h.cfg.SLO)

	vm := &hostVM{name: name, vcpus: vcpus, seed: seed, dom: dom, k: k, srv: srv, gen: gen,
		link: link, linkBps: hcfg.LinkBps}
	h.vms[name] = vm
	h.order = append(h.order, name)

	if h.armed {
		h.armVM(vm)
	}
	k.Boot()
	if h.pauseFrom > 0 && h.eng.Now() >= h.pauseFrom {
		// The quiesce barrier already passed: boot with the arrival
		// stream held so the pipeline stays drained for the capture.
		gen.Pause()
	}
	gen.SetRate(rate)
	return nil
}

// reconfigDelay builds the dom0 reconfiguration latency hook for a
// hotplug-mechanism VM: each resize first re-reads the stats of every
// VM on this host through libxl (the per-host monitoring sweep), then
// pays the XenStore write and the guest hotplug operation. More VMs on
// the host → slower scaling.
func (h *Host) reconfigDelay() func(r *sim.Rand) sim.Time {
	return func(r *sim.Rand) sim.Time {
		sweep := h.d0.ReadVMStats(h.ActiveVMs(), dom0.Idle)
		return sweep + costmodel.XenStoreWrite + h.hotplug.DrawDown(r)
	}
}

// ScheduleQuiesce schedules the load-quiesce barrier at `at` (an epoch
// start): every live VM's generator pauses there, and VMs admitted at
// or after it boot paused, so by the epoch's end boundary all in-flight
// requests have drained and the host is checkpointable. The executor
// schedules it for the epoch preceding the warm boundary, right after
// that epoch's churn batch, so the event sequence is identical in the
// capturing, the forked and the straight-through run.
func (h *Host) ScheduleQuiesce(at sim.Time) {
	h.pauseFrom = at
	h.eng.At(at, "cluster/quiesce", func() {
		for _, name := range h.order {
			if vm := h.vms[name]; !vm.retired {
				vm.gen.Pause()
			}
		}
	})
}

// Arm is the host's one switch for the policy's mechanisms: a fleet
// without a warm prefix arms each host as it is built, a warm-prefix
// fleet at the fork boundary. It enables the pool's extendability
// timer for channel mechanisms — hotplug (VCPU-Bal) reads the same
// utilisation signal as vScale, it only reconfigures through dom0 —
// and arms each live VM (armVM), whose paused load generator then
// resumes with its accounting window reset so the measured window
// starts clean. A VM that arrives later is armed as it boots. Walks
// VMs in admission order; arming an armed host is a no-op.
func (h *Host) Arm() {
	if h.armed {
		return
	}
	h.armed = true
	h.pauseFrom = 0
	if h.mech.Channel {
		h.pool.EnableVScale()
	}
	for _, name := range h.order {
		vm := h.vms[name]
		if vm.retired {
			continue
		}
		h.armVM(vm)
		vm.gen.Resume()
		vm.gen.TakeWindow() // discard: the measured window starts here
	}
}

// armVM starts one VM's scaling daemon for daemon mechanisms, with the
// dom0 reconfiguration hook for hotplug.
func (h *Host) armVM(vm *hostVM) {
	if !h.mech.Daemon {
		return
	}
	if h.mech.Hotplug {
		vm.k.SetReconfigDelay(h.reconfigDelay())
	}
	vm.k.StartVScaleDaemon()
}

// removeVM retires a VM: its load stops, its scaling daemon halts, its
// provisioned cost is checkpointed, and its accounting is frozen out of
// future placement stats. The domain object stays in the pool (idle) —
// the simulation has no domain destruction, and an idle domain consumes
// no CPU.
func (h *Host) removeVM(name string) {
	vm, ok := h.vms[name]
	if !ok || vm.retired {
		return
	}
	vm.gen.Stop()
	vm.k.StopDaemon()
	vm.cost = vm.k.ActiveVCPUSeconds()
	vm.retired = true
}

// HasLiveVM reports whether a non-retired VM of that name is resident.
func (h *Host) HasLiveVM(name string) bool {
	vm, ok := h.vms[name]
	return ok && !vm.retired
}

// MigrateOut performs the source half of a stop-and-copy cutover:
// retire the VM exactly as a departure would (its cost meter freezes,
// in-flight requests drain) and return the identity the destination
// re-boots it with. active is the guest's live vCPU count at cutover —
// the memory image carries the freeze mask, so the destination resumes
// with the same vCPUs offline instead of re-provisioning all of them.
// Called by the elasticity pass while the engine is parked at a
// boundary.
func (h *Host) MigrateOut(name string) (vcpus, active int, seed uint64, ok bool) {
	vm, exists := h.vms[name]
	if !exists || vm.retired {
		return 0, 0, 0, false
	}
	active = vm.k.ActiveVCPUs()
	h.removeVM(name)
	return vm.vcpus, active, vm.seed, true
}

// ScheduleMigrateIn boots the migrated VM on this host at `at` — the
// cutover boundary plus the modeled downtime — with its original seed
// and its post-migration offered rate. The guest resumes with the
// source's freeze mask: vCPUs [active, vcpus) come up frozen, so the
// cutover neither provisions nor costs capacity the guest had already
// scaled away.
func (h *Host) ScheduleMigrateIn(name string, vcpus, active int, rate float64, seed uint64, at sim.Time) {
	h.eng.At(at, "cluster/migrate-in", func() {
		if err := h.addVM(name, vcpus, rate, seed); err != nil {
			h.fail(err)
			return
		}
		vm := h.vms[name]
		for id := active; id > 0 && id < vcpus; id++ {
			if err := vm.k.FreezeVCPU(id); err != nil {
				h.fail(err)
				return
			}
		}
	})
}

// SetVMRate drives a VM's load generator at rps (the replica-set
// fan-out path). An absent or retired VM — e.g. one still landing from
// a migration cutover — is skipped; the next boundary's fan-out
// self-heals it.
func (h *Host) SetVMRate(name string, rps float64) {
	if vm, ok := h.vms[name]; ok && !vm.retired {
		vm.gen.SetRate(rps)
	}
}

// SetLinkScale throttles every live VM's I/O link to scale × its base
// rate — migration traffic contending with guest I/O while this host
// sources a pre-copy stream. In-flight transfers keep their departure
// times (httpd.Link semantics); newcomers boot throttled while the
// scale is below 1.
func (h *Host) SetLinkScale(scale float64) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	if h.linkScale == scale {
		return
	}
	h.linkScale = scale
	for _, name := range h.order {
		if vm := h.vms[name]; !vm.retired && vm.link != nil {
			vm.link.SetBps(vm.linkBps * scale)
		}
	}
}

// statsAt rebuilds the boundary snapshot this host just published,
// read-only: the consumption deltas Snapshot computed at this boundary
// are reused, so the elasticity pass can feed Algorithm 1 live state
// without touching accounting.
func (h *Host) statsAt() []core.VMStat {
	stats := make([]core.VMStat, 0, len(h.order))
	for _, name := range h.order {
		vm := h.vms[name]
		if !vm.retired {
			stats = append(stats, vm.dom.Stat(vm.epochConsumed))
		}
	}
	return stats
}

// StopAll retires every VM (end of horizon: drain in-flight requests).
func (h *Host) StopAll() {
	for _, name := range h.order {
		h.removeVM(name)
	}
}

// fail records the first asynchronous error.
func (h *Host) fail(err error) {
	if h.err == nil {
		h.err = err
	}
}

// RunEpoch advances the host's engine to exactly the given deadline and
// reports any fault raised by callbacks (or servers) meanwhile. The
// fleet fans these calls across its workers — each host's epoch is
// an independent, single-threaded simulation step.
func (h *Host) RunEpoch(until sim.Time) error {
	if err := h.eng.RunUntil(until); err != nil {
		return fmt.Errorf("cluster: host %d: %w", h.id, err)
	}
	if h.err != nil {
		return h.err
	}
	for _, name := range h.order {
		if err := h.vms[name].srv.Err(); err != nil {
			return fmt.Errorf("cluster: host %d: VM %s: %w", h.id, name, err)
		}
	}
	return nil
}

// Snapshot syncs the scheduler's accounting and returns per-VM stats
// for the elapsed epoch, in admission order: the telemetry the control
// plane feeds to Algorithm 1 when probing placements. Retired VMs are
// excluded but their checkpoints stay coherent.
func (h *Host) Snapshot(epoch sim.Time) []core.VMStat {
	h.pool.SyncAccounting()
	stats := make([]core.VMStat, 0, len(h.order))
	for _, name := range h.order {
		vm := h.vms[name]
		consumed := vm.dom.TotalRunTime - vm.lastConsumed
		vm.lastConsumed = vm.dom.TotalRunTime
		vm.epochConsumed = consumed
		if !vm.retired {
			stats = append(stats, vm.dom.Stat(consumed))
		}
	}
	return stats
}

// Observations builds the per-VM policy observations for the epoch that
// just ended, in admission order. It consumes each live VM's load
// window (loadgen.TakeWindow), so the control plane calls it exactly
// once per epoch, after Snapshot has refreshed the consumption deltas.
// Building observations reads accounting only — no RNG draws, no engine
// events — so policies observing the fleet cannot perturb it.
func (h *Host) Observations(epoch sim.Time) []VMObservation {
	obs := make([]VMObservation, 0, len(h.order))
	for _, name := range h.order {
		vm := h.vms[name]
		if vm.retired {
			continue
		}
		w, hist := vm.gen.TakeWindow()
		o := VMObservation{
			VM:          name,
			Host:        h.id,
			Epoch:       epoch,
			MaxVCPUs:    vm.vcpus,
			ActiveVCPUs: vm.k.ActiveVCPUs(),
			HostPCPUs:   h.cfg.PCPUs,
			ConsumedCPU: vm.epochConsumed,
			OfferedRPS:  vm.gen.Rate(),
			Offered:     w.Offered,
			Replies:     w.Replies,
			Errors:      w.Errors,
			InFlight:    w.InFlight,
			Attainment:  w.Attainment(),
			SLO:         h.cfg.SLO,
		}
		if w.Replies > 0 {
			o.P50 = hist.Quantile(0.5)
			o.P95 = hist.Quantile(0.95)
			o.P99 = hist.Quantile(0.99)
		}
		obs = append(obs, o)
	}
	return obs
}

// ApplyTarget resizes a VM to target active vCPUs through the guest
// balancer, exactly as the in-guest daemon would: freeze the
// highest-numbered active vCPUs, unfreeze the lowest-numbered frozen
// ones. The control plane calls it between epochs while the engine is
// parked; the freeze/unfreeze IPIs it raises are zero-delay events that
// fire first thing next epoch. The target is clamped to [1, MaxVCPUs];
// matching the current count is a no-op.
func (h *Host) ApplyTarget(name string, target int) {
	vm, ok := h.vms[name]
	if !ok || vm.retired {
		return
	}
	vm.policyOps += uint64(vm.k.ResizeActive(clampVCPUs(target, vm.vcpus)))
}

// ProvisionedVCPUSeconds returns the host's provisioned cost so far:
// the integral of each VM's active (unfrozen) vCPU count over its
// lifetime, in vCPU-seconds. A retired VM's cost is frozen at its
// departure, so post-horizon drain time is never billed.
func (h *Host) ProvisionedVCPUSeconds() float64 {
	total := 0.0
	for _, name := range h.order {
		vm := h.vms[name]
		if vm.retired {
			total += vm.cost
		} else {
			total += vm.k.ActiveVCPUSeconds()
		}
	}
	return total
}
