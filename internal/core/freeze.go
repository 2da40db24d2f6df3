package core

import (
	"fmt"

	"vscale/internal/costmodel"
	"vscale/internal/sim"
)

// MasterStep is one step of the freeze/unfreeze protocol executed on the
// master vCPU (vCPU0), per Algorithm 2 of the paper. The steps must run
// in this order; the split design keeps the master's cost minimal because
// it never blocks waiting for the target.
type MasterStep int

// The master-vCPU steps, in required execution order.
const (
	// StepSyscall enters the kernel via sys_freezecpu.
	StepSyscall MasterStep = iota
	// StepFreezeLock serialises concurrent freeze/unfreeze calls
	// (cpu_freeze_lock with interrupt state saved/restored).
	StepFreezeLock
	// StepMaskUpdate flips the target's bit in cpu_freeze_mask so other
	// vCPUs stop pushing tasks to it (and it stops pulling).
	StepMaskUpdate
	// StepGroupPower updates the power of the scheduling domain and group
	// containing the target (update_group_power under RCU).
	StepGroupPower
	// StepHypercall notifies the hypervisor (SCHEDOP_cpufreeze) so the
	// target stops earning credits / rejoins the active list.
	StepHypercall
	// StepRescheduleIPI tickles the target vCPU's scheduler so it
	// performs the migration work locally.
	StepRescheduleIPI

	numMasterSteps
)

// String names the step for reports.
func (s MasterStep) String() string {
	switch s {
	case StepSyscall:
		return "system call (sys_freezecpu)"
	case StepFreezeLock:
		return "acquire/release cpu_freeze_lock"
	case StepMaskUpdate:
		return "change cpu_freeze_mask"
	case StepGroupPower:
		return "update sched domain/group power"
	case StepHypercall:
		return "hypercall (SCHEDOP_cpufreeze)"
	case StepRescheduleIPI:
		return "send reschedule IPI"
	default:
		return fmt.Sprintf("MasterStep(%d)", int(s))
	}
}

// Cost returns the virtual-time cost of the step (paper Table 3).
func (s MasterStep) Cost() sim.Time {
	switch s {
	case StepSyscall:
		return costmodel.Syscall
	case StepFreezeLock:
		return costmodel.FreezeLock
	case StepMaskUpdate:
		return costmodel.FreezeMaskUpdate
	case StepGroupPower:
		return costmodel.GroupPowerUpdate
	case StepHypercall:
		return costmodel.Hypercall
	case StepRescheduleIPI:
		return costmodel.RescheduleIPISend
	default:
		return 0
	}
}

// MasterSteps returns the ordered master-vCPU step list.
func MasterSteps() []MasterStep {
	steps := make([]MasterStep, numMasterSteps)
	for i := range steps {
		steps[i] = MasterStep(i)
	}
	return steps
}

// MasterCost returns the total master-vCPU cost of one freeze or
// unfreeze operation (Table 3: 2.10 µs).
func MasterCost() sim.Time { return costmodel.FreezeMasterCost }

// FreezePlan quantifies the work a freeze (or unfreeze) of one vCPU
// requires: the fixed master-side protocol plus the target-side
// migration of threads and rebinding of device interrupts.
type FreezePlan struct {
	// TargetVCPU is the vCPU being frozen or unfrozen.
	TargetVCPU int
	// Unfreeze distinguishes activation from deactivation; the protocol
	// and costs are symmetric.
	Unfreeze bool
	// MigratableThreads counts the uthreads and system-wide kthreads on
	// the target's runqueue that must move (freeze) or may be pulled
	// (unfreeze).
	MigratableThreads int
	// DeviceIRQs counts event-channel-bound device interrupts that must
	// be rebound away from the target. Interrupts are migrated lazily
	// (when they next fire), but the plan accounts for them.
	DeviceIRQs int
}

// MasterCost is the fixed cost on vCPU0.
func (p FreezePlan) MasterCost() sim.Time { return MasterCost() }

// TargetCostExpected returns the expected target-vCPU cost using the
// midpoints of the paper's per-item ranges (0.9–1.1 µs per thread,
// 0.8–1.2 µs per IRQ).
func (p FreezePlan) TargetCostExpected() sim.Time {
	return sim.Time(p.MigratableThreads)*costmodel.ThreadMigrate.Mid() +
		sim.Time(p.DeviceIRQs)*costmodel.IRQMigrate.Mid()
}

// DrawTargetCost samples a concrete target-vCPU cost.
func (p FreezePlan) DrawTargetCost(r *sim.Rand) sim.Time {
	var sum sim.Time
	for i := 0; i < p.MigratableThreads; i++ {
		sum += costmodel.ThreadMigrate.Draw(r)
	}
	for i := 0; i < p.DeviceIRQs; i++ {
		sum += costmodel.IRQMigrate.Draw(r)
	}
	return sum
}

// TotalExpected is the expected wall cost if master and target ran
// back-to-back (they overlap in practice; this is an upper bound).
func (p FreezePlan) TotalExpected() sim.Time {
	return p.MasterCost() + p.TargetCostExpected()
}
