// Package xen models the hypervisor substrate of the vScale paper: a
// credit-scheduler hypervisor in the style of Xen 4.5 (30 ms time slice,
// 10 ms ticks, 30 ms accounting, BOOST/UNDER/OVER priorities, per-pCPU
// runqueues with work stealing), CPU pools, event channels, per-vCPU
// one-shot timers, and the vScale scheduler extension (per-VM weights,
// frozen-vCPU exclusion from credit accounting, the extendability timer
// and the vScale communication channel).
//
// Everything runs in virtual time on an internal/sim engine and is fully
// deterministic.
package xen

import (
	"fmt"

	"vscale/internal/core"
	"vscale/internal/metrics"
	"vscale/internal/sim"
)

// VCPUState is the hypervisor-visible state of a virtual CPU.
type VCPUState int

// VCPU states.
const (
	// StateBlocked: the vCPU has no work (guest idled it via
	// SCHED_block) and waits for an event.
	StateBlocked VCPUState = iota
	// StateRunnable: the vCPU sits in a pCPU runqueue waiting to be
	// scheduled. Time spent here is the scheduling delay the paper is
	// about.
	StateRunnable
	// StateRunning: the vCPU currently occupies a pCPU.
	StateRunning
)

func (s VCPUState) String() string {
	switch s {
	case StateBlocked:
		return "blocked"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	default:
		return fmt.Sprintf("VCPUState(%d)", int(s))
	}
}

// Priority is the credit scheduler's priority class. Lower value means
// scheduled first.
type Priority int

// Credit-scheduler priority classes.
const (
	// PriBoost is granted to vCPUs that wake from blocking while UNDER,
	// letting latency-sensitive vCPUs preempt (Xen's boost mechanism).
	PriBoost Priority = iota
	// PriUnder marks vCPUs with remaining credit.
	PriUnder
	// PriOver marks vCPUs that exhausted their credit; they run only
	// when nothing UNDER is runnable (work conservation).
	PriOver
)

func (p Priority) String() string {
	switch p {
	case PriBoost:
		return "BOOST"
	case PriUnder:
		return "UNDER"
	case PriOver:
		return "OVER"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// GuestOS is what the hypervisor knows about the software inside a
// domain. internal/guest.Kernel implements it; tests use lightweight
// fakes.
//
// Contract: Dispatched/Descheduled/DeliverEvent are invoked synchronously
// from the scheduler. The guest must not re-enter scheduling hypercalls
// (Block) from inside these callbacks; if a dispatched vCPU discovers it
// has nothing to run, it must defer the block with a zero-delay engine
// event (the cost of running the idle task briefly, which is also what
// real hardware pays).
type GuestOS interface {
	// Dispatched tells the guest that vcpu just started running on a
	// pCPU; the guest resumes the thread context and re-arms its local
	// timer events.
	Dispatched(vcpu int)
	// Descheduled tells the guest that vcpu lost its pCPU (preemption or
	// its own block); the guest must stop charging work and cancel
	// pending local events for that vcpu.
	Descheduled(vcpu int)
	// DeliverEvent delivers an event-channel upcall to a running vcpu.
	DeliverEvent(vcpu int, port *Port)
}

// PortKind classifies event channel ports.
type PortKind int

// Port kinds.
const (
	// PortIPI is an inter-vCPU notification within a domain (used for
	// reschedule IPIs).
	PortIPI PortKind = iota
	// PortVIRQTimer is the per-vCPU one-shot timer interrupt.
	PortVIRQTimer
	// PortIRQ is an external device interrupt (network, disk) bound to
	// one vCPU and rebindable at runtime (vScale migrates these away
	// from frozen vCPUs).
	PortIRQ
)

func (k PortKind) String() string {
	switch k {
	case PortIPI:
		return "ipi"
	case PortVIRQTimer:
		return "virq-timer"
	case PortIRQ:
		return "irq"
	default:
		return fmt.Sprintf("PortKind(%d)", int(k))
	}
}

// Port is one event channel. Notifications to a port are delivered to
// the bound vCPU: immediately if it is running, on next dispatch if it
// is queued, and after waking it if it is blocked.
type Port struct {
	Kind      PortKind
	Name      string
	dom       *Domain
	target    int // bound vCPU id
	pending   bool
	pendingAt sim.Time
}

// Target returns the vCPU the port is currently bound to.
func (p *Port) Target() int { return p.target }

// Domain returns the owning domain.
func (p *Port) Domain() *Domain { return p.dom }

// VCPU is a virtual CPU as the hypervisor sees it.
type VCPU struct {
	dom *Domain
	id  int

	state VCPUState
	pri   Priority
	// credits is the remaining entitled CPU time (signed, in virtual ns)
	// under the credit policy.
	credits sim.Time
	// vruntime is the weighted virtual runtime under the VRT policy.
	vruntime sim.Time
	// pcpu is the current placement; for blocked vCPUs it remembers the
	// last pCPU for wake affinity.
	pcpu *PCPU

	queuedAt     sim.Time // when it entered StateRunnable
	dispatchedAt sim.Time // last dispatch / partial-burn checkpoint

	pendingPorts []*Port
	timer        *sim.Timer // one-shot VIRQ timer armed by the guest

	// frozen mirrors the guest's cpu_freeze_mask at the hypervisor: a
	// frozen vCPU is excluded from credit accounting (removed from the
	// domain's active list) so sibling vCPUs earn more.
	frozen bool

	// reconfigBoost prioritises the next wakeup/tickle of this vCPU:
	// vScale asks the hypervisor to deliver reschedule IPIs to a vCPU
	// under reconfiguration as fast as possible.
	reconfigBoost bool

	// Stats.
	RunTime     sim.Time
	WaitTime    sim.Time
	Wakeups     uint64
	Dispatches  uint64
	Preemptions uint64
}

// ID returns the vCPU index within its domain.
func (v *VCPU) ID() int { return v.id }

// Domain returns the owning domain.
func (v *VCPU) Domain() *Domain { return v.dom }

// State returns the current scheduler state.
func (v *VCPU) State() VCPUState { return v.state }

// Priority returns the current credit priority class.
func (v *VCPU) Priority() Priority { return v.pri }

// Credits returns the remaining credit in virtual ns.
func (v *VCPU) Credits() sim.Time { return v.credits }

// Frozen reports whether the guest froze this vCPU.
func (v *VCPU) Frozen() bool { return v.frozen }

// Domain is a VM: a weight, a set of vCPUs, event channel ports and a
// guest OS.
type Domain struct {
	pool *Pool
	id   int
	Name string

	// Weight is the domain's proportional share. Following the paper's
	// Xen modification, weight is per-VM: freezing vCPUs does not change
	// the domain's total entitlement (see Config.PerVCPUWeight for the
	// unpatched behaviour).
	Weight float64
	// CapPCPUs bounds the domain's CPU consumption (0 = uncapped).
	CapPCPUs float64
	// ReservationPCPUs is the guaranteed lower bound used by the
	// extendability calculation (the credit scheduler itself does not
	// enforce it).
	ReservationPCPUs float64

	vcpus []*VCPU
	guest GuestOS

	ipiPorts   []*Port // one per vCPU
	timerPorts []*Port // one per vCPU
	irqPorts   []*Port // allocated by AllocIRQ

	// periodConsumed accumulates CPU time for the vScale extendability
	// timer and is reset every vScale period.
	periodConsumed sim.Time
	// acctActive marks the domain as having consumed CPU since the last
	// credit accounting; inactive domains do not receive credits.
	acctActive bool

	// ext is the most recent extendability result, readable by the guest
	// through the vScale channel.
	ext core.Extendability

	// Stats.
	TotalRunTime  sim.Time
	TotalWaitTime sim.Time

	// IPIDelay and IRQDelay sample the event-channel delivery latency
	// (µs) for inter-vCPU notifications and device interrupts — the
	// quantities behind the paper's Figure 1(b) and 1(c).
	IPIDelay metrics.Sample
	IRQDelay metrics.Sample
}

// ID returns the domain id.
func (d *Domain) ID() int { return d.id }

// Pool returns the CPU pool hosting the domain.
func (d *Domain) Pool() *Pool { return d.pool }

// VCPUCount returns the configured number of vCPUs.
func (d *Domain) VCPUCount() int { return len(d.vcpus) }

// VCPU returns the i-th vCPU.
func (d *Domain) VCPU(i int) *VCPU { return d.vcpus[i] }

// Guest returns the attached guest OS.
func (d *Domain) Guest() GuestOS { return d.guest }

// ActiveVCPUs returns the number of non-frozen vCPUs.
func (d *Domain) ActiveVCPUs() int {
	n := 0
	for _, v := range d.vcpus {
		if !v.frozen {
			n++
		}
	}
	return n
}

// IPIPort returns the IPI port bound to the given vCPU.
func (d *Domain) IPIPort(vcpu int) *Port { return d.ipiPorts[vcpu] }

// AllocIRQ allocates a device interrupt port initially bound to vcpu.
func (d *Domain) AllocIRQ(name string, vcpu int) *Port {
	p := &Port{Kind: PortIRQ, Name: name, dom: d, target: vcpu}
	d.irqPorts = append(d.irqPorts, p)
	return p
}

// RebindIRQ changes an IRQ port's bound vCPU (Xen's event-channel
// rebinding; the cost of the hypercall is charged by the guest caller).
func (d *Domain) RebindIRQ(p *Port, vcpu int) {
	if p.Kind != PortIRQ {
		panic("xen: only IRQ ports can be rebound")
	}
	if vcpu < 0 || vcpu >= len(d.vcpus) {
		panic(fmt.Sprintf("xen: rebind to invalid vCPU %d", vcpu))
	}
	p.target = vcpu
}

// SendIPI notifies the IPI port of the target vCPU (a reschedule IPI in
// the guest's eyes). from is informational.
func (d *Domain) SendIPI(from, to int) {
	d.pool.Notify(d.ipiPorts[to])
}

// KickVCPU wakes a blocked vCPU through its IPI port without a sender
// (used at guest boot and by test harnesses).
func (d *Domain) KickVCPU(id int) {
	d.pool.Notify(d.ipiPorts[id])
}

// SetTimer arms the vCPU's one-shot timer to fire VIRQ_TIMER at the
// absolute virtual time at. Re-arming supersedes the previous deadline.
func (v *VCPU) SetTimer(at sim.Time) {
	v.timer.ResetAt(at)
}

// StopTimer cancels a pending timer.
func (v *VCPU) StopTimer() { v.timer.Stop() }

// TimerArmed reports whether the one-shot timer is armed.
func (v *VCPU) TimerArmed() bool { return v.timer.Armed() }

// Extendability returns the domain's latest vScale extendability result
// (zero value if the extension is disabled or has not ticked yet). This
// is the raw read; guests go through the vScale channel which also
// charges the syscall+hypercall cost.
func (d *Domain) Extendability() core.Extendability { return d.ext }

// Stat describes the domain to Algorithm 1 (core.ComputeExtendability):
// its weight, reservation, cap and vCPU count, with consumed as the CPU
// time it used over the period being judged.
func (d *Domain) Stat(consumed sim.Time) core.VMStat {
	n := len(d.vcpus)
	return core.VMStat{
		ID:               d.Name,
		Weight:           d.Weight,
		Consumption:      consumed,
		ReservationPCPUs: d.ReservationPCPUs,
		CapPCPUs:         d.CapPCPUs,
		MaxVCPUs:         n,
		UP:               n == 1,
	}
}
