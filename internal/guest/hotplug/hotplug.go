// Package hotplug models legacy Linux CPU hotplug, the mechanism vScale
// replaces. Hotplug runs a chain of per-subsystem notifier callbacks
// around a stop_machine() phase that halts every online CPU with
// interrupts disabled; its latency is milliseconds to over a hundred
// milliseconds (paper Figure 5), which is why VCPU-Bal could only
// simulate dynamic vCPUs and why vScale builds a new mechanism instead.
//
// The model reproduces the structure (notifier phases + stop_machine)
// and draws phase latencies from per-kernel-version distributions fitted
// to the paper's CDFs.
package hotplug

import (
	"fmt"

	"vscale/internal/costmodel"
	"vscale/internal/sim"
)

// Phase names one step of the hotplug sequence.
type Phase int

// Hotplug phases, in execution order for CPU removal. Addition runs the
// *_PREPARE/ONLINE phases instead; both are dominated by the same
// stop_machine and notifier costs.
const (
	// PhasePrepare runs CPU_DOWN_PREPARE notifiers (subsystems veto or
	// get ready; per-CPU kthreads are parked).
	PhasePrepare Phase = iota
	// PhaseStopMachine halts all CPUs with interrupts disabled and runs
	// take_cpu_down() — the heavy, disruptive step ("equivalent to
	// grabbing every spinlock in the kernel").
	PhaseStopMachine
	// PhaseDying runs the CPU_DYING notifier class in stop_machine
	// context.
	PhaseDying
	// PhaseDead runs CPU_DEAD notifiers: migrate timers/work, rebuild
	// scheduling domains.
	PhaseDead
)

func (p Phase) String() string {
	switch p {
	case PhasePrepare:
		return "DOWN_PREPARE notifiers"
	case PhaseStopMachine:
		return "stop_machine()"
	case PhaseDying:
		return "CPU_DYING notifiers"
	case PhaseDead:
		return "CPU_DEAD notifiers + domain rebuild"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// phaseShare is the rough fraction of total latency each phase
// contributes (stop_machine dominates; shares sum to 1).
var phaseShare = map[Phase]float64{
	PhasePrepare:     0.15,
	PhaseStopMachine: 0.55,
	PhaseDying:       0.10,
	PhaseDead:        0.20,
}

// Op is one sampled hotplug operation with its per-phase breakdown.
type Op struct {
	Version string
	Remove  bool // true = CPU removal, false = addition
	Total   sim.Time
	Phases  map[Phase]sim.Time
}

// Sampler draws hotplug operations for one kernel version.
type Sampler struct {
	model costmodel.HotplugModel
	rand  *sim.Rand
}

// NewSampler returns a sampler for the given kernel version. It reports
// an error for unknown versions.
func NewSampler(version string, rand *sim.Rand) (*Sampler, error) {
	m, ok := costmodel.HotplugModelFor(version)
	if !ok {
		return nil, fmt.Errorf("hotplug: unknown kernel version %q", version)
	}
	return &Sampler{model: m, rand: rand}, nil
}

// Remove samples one CPU-removal operation.
func (s *Sampler) Remove() Op {
	total := s.model.DrawDown(s.rand)
	return split(s.model.Version, true, total)
}

// Add samples one CPU-addition operation.
func (s *Sampler) Add() Op {
	total := s.model.DrawUp(s.rand)
	return split(s.model.Version, false, total)
}

func split(version string, remove bool, total sim.Time) Op {
	op := Op{Version: version, Remove: remove, Total: total, Phases: make(map[Phase]sim.Time)}
	var assigned sim.Time
	for p := PhasePrepare; p <= PhaseDead; p++ {
		d := sim.Time(float64(total) * phaseShare[p])
		op.Phases[p] = d
		assigned += d
	}
	// Rounding remainder goes to stop_machine.
	op.Phases[PhaseStopMachine] += total - assigned
	return op
}

// Versions lists the kernel versions with fitted models (paper Figure 5
// evaluates these four).
func Versions() []string {
	out := make([]string, 0, len(costmodel.HotplugModels))
	for _, m := range costmodel.HotplugModels {
		out = append(out, m.Version)
	}
	return out
}
