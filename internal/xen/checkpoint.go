package xen

import (
	"fmt"
	"strings"

	"vscale/internal/core"
	"vscale/internal/sim"
)

// Checkpoint support for the hypervisor layer (docs/checkpoint.md).
// Pools are checkpointed only when quiesced: every pCPU idle, every vCPU
// blocked, no pending event-channel notifications. At that point the
// pool's only live engine events are its periodic timers (and possibly
// armed per-vCPU one-shot timers), all of which RearmPending can rebuild
// from a (label, deadline) descriptor — nothing in the snapshot is a
// closure.

// VCPUCheckpoint is the semantic state of one vCPU. The scheduler state
// itself is not recorded: a quiesced vCPU is blocked by definition, and
// restore validates that the rebuilt vCPU is too.
type VCPUCheckpoint struct {
	Pri           int      `json:"pri"`
	Credits       sim.Time `json:"credits"`
	VRuntime      sim.Time `json:"vruntime"`
	PCPU          int      `json:"pcpu"`
	QueuedAt      sim.Time `json:"queued_at"`
	DispatchedAt  sim.Time `json:"dispatched_at"`
	Frozen        bool     `json:"frozen"`
	ReconfigBoost bool     `json:"reconfig_boost"`
	RunTime       sim.Time `json:"run_time"`
	WaitTime      sim.Time `json:"wait_time"`
	Wakeups       uint64   `json:"wakeups"`
	Dispatches    uint64   `json:"dispatches"`
	Preemptions   uint64   `json:"preemptions"`
}

// DomainCheckpoint is the semantic state of one domain. Weight/cap/
// reservation are configuration, recorded for cross-checking against the
// rebuilt domain. The IPIDelay/IRQDelay diagnostic samples are
// deliberately excluded (write-only, see docs/checkpoint.md).
type DomainCheckpoint struct {
	Name             string             `json:"name"`
	Weight           float64            `json:"weight"`
	CapPCPUs         float64            `json:"cap_pcpus"`
	ReservationPCPUs float64            `json:"reservation_pcpus"`
	PeriodConsumed   sim.Time           `json:"period_consumed"`
	AcctActive       bool               `json:"acct_active"`
	Ext              core.Extendability `json:"ext"`
	TotalRunTime     sim.Time           `json:"total_run_time"`
	TotalWaitTime    sim.Time           `json:"total_wait_time"`
	VCPUs            []VCPUCheckpoint   `json:"vcpus"`
}

// PCPUCheckpoint is the semantic state of one idle pCPU.
type PCPUCheckpoint struct {
	IdleSince sim.Time `json:"idle_since"`
	IdleTime  sim.Time `json:"idle_time"`
	Switches  uint64   `json:"switches"`
}

// PoolCheckpoint is the semantic state of a quiesced pool.
type PoolCheckpoint struct {
	VScaleTicks uint64             `json:"vscale_ticks"`
	PCPUs       []PCPUCheckpoint   `json:"pcpus"`
	Domains     []DomainCheckpoint `json:"domains"`
}

// QuiesceCheck verifies the pool is in the only shape this layer knows
// how to checkpoint: all pCPUs idle with empty runqueues and stopped
// slice timers, all vCPUs blocked with no pending event-channel
// notifications. It returns a descriptive error naming the first
// violation.
func (pool *Pool) QuiesceCheck() error {
	for _, p := range pool.pcpus {
		if p.current != nil {
			return fmt.Errorf("xen: pCPU %d is running %s.%d", p.id, p.current.dom.Name, p.current.id)
		}
		if len(p.runq) != 0 {
			return fmt.Errorf("xen: pCPU %d has %d queued vCPUs", p.id, len(p.runq))
		}
		if p.sliceTimer.Armed() {
			return fmt.Errorf("xen: pCPU %d slice timer still armed", p.id)
		}
		if !p.idle {
			return fmt.Errorf("xen: pCPU %d not marked idle", p.id)
		}
	}
	for _, d := range pool.domains {
		for _, v := range d.vcpus {
			if v.state != StateBlocked {
				return fmt.Errorf("xen: vCPU %s.%d is %v, not blocked", d.Name, v.id, v.state)
			}
			if len(v.pendingPorts) != 0 {
				return fmt.Errorf("xen: vCPU %s.%d has %d pending ports", d.Name, v.id, len(v.pendingPorts))
			}
		}
		for _, ports := range [][]*Port{d.ipiPorts, d.timerPorts, d.irqPorts} {
			for _, p := range ports {
				if p.pending {
					return fmt.Errorf("xen: port %s/%s still pending", d.Name, p.Name)
				}
			}
		}
	}
	return nil
}

// CaptureState exports the pool's semantic state. The caller is expected
// to have verified QuiesceCheck; capture itself does not require it, but
// restoring a non-quiesced capture is not supported.
func (pool *Pool) CaptureState() PoolCheckpoint {
	cp := PoolCheckpoint{VScaleTicks: pool.VScaleTicks}
	for _, p := range pool.pcpus {
		cp.PCPUs = append(cp.PCPUs, PCPUCheckpoint{
			IdleSince: p.idleSince,
			IdleTime:  p.IdleTime,
			Switches:  p.Switches,
		})
	}
	for _, d := range pool.domains {
		dc := DomainCheckpoint{
			Name:             d.Name,
			Weight:           d.Weight,
			CapPCPUs:         d.CapPCPUs,
			ReservationPCPUs: d.ReservationPCPUs,
			PeriodConsumed:   d.periodConsumed,
			AcctActive:       d.acctActive,
			Ext:              d.ext,
			TotalRunTime:     d.TotalRunTime,
			TotalWaitTime:    d.TotalWaitTime,
		}
		for _, v := range d.vcpus {
			dc.VCPUs = append(dc.VCPUs, VCPUCheckpoint{
				Pri:           int(v.pri),
				Credits:       v.credits,
				VRuntime:      v.vruntime,
				PCPU:          v.pcpu.id,
				QueuedAt:      v.queuedAt,
				DispatchedAt:  v.dispatchedAt,
				Frozen:        v.frozen,
				ReconfigBoost: v.reconfigBoost,
				RunTime:       v.RunTime,
				WaitTime:      v.WaitTime,
				Wakeups:       v.Wakeups,
				Dispatches:    v.Dispatches,
				Preemptions:   v.Preemptions,
			})
		}
		cp.Domains = append(cp.Domains, dc)
	}
	return cp
}

// RestoreState overwrites the pool's semantic state from a capture. The
// pool must have been rebuilt with the same topology (same pCPU count,
// same domains in the same admission order with the same vCPU counts)
// and quiesced; mismatches are errors.
func (pool *Pool) RestoreState(cp PoolCheckpoint) error {
	if len(cp.PCPUs) != len(pool.pcpus) {
		return fmt.Errorf("xen: restoring %d pCPUs into a %d-pCPU pool", len(cp.PCPUs), len(pool.pcpus))
	}
	if len(cp.Domains) != len(pool.domains) {
		return fmt.Errorf("xen: restoring %d domains into a pool with %d", len(cp.Domains), len(pool.domains))
	}
	if err := pool.QuiesceCheck(); err != nil {
		return fmt.Errorf("xen: restore target not quiesced: %w", err)
	}
	for i, d := range pool.domains {
		dc := cp.Domains[i]
		if d.Name != dc.Name {
			return fmt.Errorf("xen: domain %d is %q, checkpoint has %q", i, d.Name, dc.Name)
		}
		if len(d.vcpus) != len(dc.VCPUs) {
			return fmt.Errorf("xen: domain %q has %d vCPUs, checkpoint has %d", d.Name, len(d.vcpus), len(dc.VCPUs))
		}
	}
	pool.VScaleTicks = cp.VScaleTicks
	for i, p := range pool.pcpus {
		pc := cp.PCPUs[i]
		p.idleSince = pc.IdleSince
		p.IdleTime = pc.IdleTime
		p.Switches = pc.Switches
	}
	for i, d := range pool.domains {
		dc := cp.Domains[i]
		d.Weight = dc.Weight
		d.CapPCPUs = dc.CapPCPUs
		d.ReservationPCPUs = dc.ReservationPCPUs
		d.periodConsumed = dc.PeriodConsumed
		d.acctActive = dc.AcctActive
		d.ext = dc.Ext
		d.TotalRunTime = dc.TotalRunTime
		d.TotalWaitTime = dc.TotalWaitTime
		for j, v := range d.vcpus {
			vc := dc.VCPUs[j]
			v.pri = Priority(vc.Pri)
			v.credits = vc.Credits
			v.vruntime = vc.VRuntime
			if vc.PCPU < 0 || vc.PCPU >= len(pool.pcpus) {
				return fmt.Errorf("xen: vCPU %s.%d placed on invalid pCPU %d", d.Name, j, vc.PCPU)
			}
			v.pcpu = pool.pcpus[vc.PCPU]
			v.queuedAt = vc.QueuedAt
			v.dispatchedAt = vc.DispatchedAt
			v.frozen = vc.Frozen
			v.reconfigBoost = vc.ReconfigBoost
			v.RunTime = vc.RunTime
			v.WaitTime = vc.WaitTime
			v.Wakeups = vc.Wakeups
			v.Dispatches = vc.Dispatches
			v.Preemptions = vc.Preemptions
		}
	}
	return nil
}

// timerFor resolves a pending event's label to the pool timer behind
// it: the credit scheduler's "xen/tick" or "xen/acct", or the one-shot
// "xen/vtimer/<domain>.<vcpu>". ok is false for any other label; one of
// these forms that names no timer of this pool is an error. A
// checkpointed pool is disarmed, so "xen/vscale" is never pending.
func (pool *Pool) timerFor(label string) (t *sim.Timer, ok bool, err error) {
	switch label {
	case "xen/tick":
		return pool.tickTimer, true, nil
	case "xen/acct":
		return pool.acctTimer, true, nil
	}
	rest, ok := strings.CutPrefix(label, "xen/vtimer/")
	if !ok {
		return nil, false, nil
	}
	dot := strings.LastIndexByte(rest, '.')
	if dot < 0 {
		return nil, true, fmt.Errorf("xen: malformed vtimer label %q", label)
	}
	name := rest[:dot]
	var id int
	if _, err := fmt.Sscanf(rest[dot+1:], "%d", &id); err != nil {
		return nil, true, fmt.Errorf("xen: malformed vtimer label %q", label)
	}
	for _, d := range pool.domains {
		if d.Name != name {
			continue
		}
		if id < 0 || id >= len(d.vcpus) {
			return nil, true, fmt.Errorf("xen: vtimer label %q names vCPU %d of %d", label, id, len(d.vcpus))
		}
		return d.vcpus[id].timer, true, nil
	}
	return nil, true, fmt.Errorf("xen: vtimer label %q names an unknown domain", label)
}

// Checkpointable reports whether a pending event's label names a pool
// timer that RearmPending can re-arm: the only events live at a quiesced
// warm boundary.
func (pool *Pool) Checkpointable(label string) bool {
	_, ok, err := pool.timerFor(label)
	return ok && err == nil
}

// RearmPending re-arms the pool timer behind a checkpointed descriptor
// label at the recorded absolute deadline. It reports whether the label
// belongs to this pool; a pool label that names no timer is an error.
func (pool *Pool) RearmPending(label string, at sim.Time) (bool, error) {
	t, ok, err := pool.timerFor(label)
	if ok && err == nil {
		t.ResetAt(at)
	}
	return ok, err
}
