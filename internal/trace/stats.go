package trace

import (
	"vscale/internal/metrics"
	"vscale/internal/sim"
)

// domAcc aggregates per-domain schedstats.
type domAcc struct {
	name  string
	vcpus []*vcpuAcc
}

// vcpuAcc is the always-exact accounting for one vCPU. Unlike the ring,
// it never drops: it only keeps aggregates.
type vcpuAcc struct {
	hvState VState // hypervisor state (RUN/RUNNABLE/BLOCKED)
	frozen  bool
	since   sim.Time

	dwell   [nVStates]sim.Time
	wakeLat metrics.Sample // RUNNABLE->RUN dwell, µs
	ipiLat  metrics.Sample // IPI send->deliver, µs

	lhpCount uint64
	lhpTotal sim.Time
	lhpMax   sim.Time

	steals             uint64
	freezes, unfreezes uint64
	futexWaits         uint64
	futexWakes         uint64
}

// effective maps (hypervisor state, frozen flag) to the dwell state:
// while frozen the vCPU is accounted FROZEN whatever the scheduler
// thinks (it may be briefly RUNNABLE/RUN while draining).
func (a *vcpuAcc) effective() VState {
	if a.frozen {
		return VFrozen
	}
	return a.hvState
}

// VCPUStat is the finalized schedstats row of one vCPU.
type VCPUStat struct {
	Dom     int
	DomName string
	VCPU    int

	// Dwell is the time spent in each VState; the in-progress dwell is
	// closed at the snapshot's End, so the entries sum to End minus the
	// vCPU's registration time.
	Dwell [nVStates]sim.Time
	// Total is the sum of Dwell.
	Total sim.Time

	// Wakeup-to-run latency (µs): dwell in RUNNABLE on transitions into
	// RUN.
	WakeCount                        uint64
	WakeMeanUs, WakeP50Us, WakeP99Us float64
	WakeMaxUs                        float64

	// Lock-holder preemption incidents (descheduled holding a lock).
	LHPCount uint64
	LHPTotal sim.Time
	LHPMax   sim.Time

	// IPI send-to-deliver latency (µs).
	IPICount            uint64
	IPIMeanUs, IPIP99Us float64

	Steals             uint64
	Freezes, Unfreezes uint64
	FutexWaits         uint64
	FutexWakes         uint64
}

// Snapshot is the finalized schedstats view, safe to render repeatedly.
type Snapshot struct {
	End   sim.Time
	VCPUs []VCPUStat

	// Ring accounting.
	RingTotal    uint64
	RingDropped  uint64
	RingRetained int

	// Engine accounting (zero unless SetEngineCounters was called).
	HaveEngine                           bool
	EngScheduled, EngCancelled, EngFired uint64
}

// Totals is the sum over every traced vCPU of the counters that need no
// finalizing: wakeups, lock-holder preemptions, steals and delivered
// IPIs.
type Totals struct {
	Wakeups, LHPs, Steals, IPIs uint64
	LHPTime                     sim.Time
}

// Totals sums the per-vCPU accumulators in place. Unlike Snapshot it
// builds no rows, so an exporter can read it every epoch without
// allocating. A nil tracer has zero totals.
func (t *Tracer) Totals() Totals {
	var tot Totals
	if t == nil {
		return tot
	}
	for _, d := range t.doms {
		if d == nil {
			continue
		}
		for _, a := range d.vcpus {
			tot.Wakeups += uint64(a.wakeLat.Count())
			tot.LHPs += a.lhpCount
			tot.LHPTime += a.lhpTotal
			tot.Steals += a.steals
			tot.IPIs += uint64(a.ipiLat.Count())
		}
	}
	return tot
}

// Snapshot finalizes the schedstats at end: every in-progress dwell is
// closed at end without mutating the live accounting, so tracing can
// continue afterwards.
func (t *Tracer) Snapshot(end sim.Time) *Snapshot {
	if t == nil {
		return &Snapshot{}
	}
	s := &Snapshot{
		End:          end,
		RingTotal:    t.total,
		RingDropped:  t.dropped,
		RingRetained: t.n,
		HaveEngine:   t.haveEngine,
		EngScheduled: t.engScheduled,
		EngCancelled: t.engCancelled,
		EngFired:     t.engFired,
	}
	for domID, d := range t.doms {
		if d == nil {
			continue
		}
		for vcpuID, a := range d.vcpus {
			row := VCPUStat{
				Dom:        domID,
				DomName:    d.name,
				VCPU:       vcpuID,
				Dwell:      a.dwell,
				LHPCount:   a.lhpCount,
				LHPTotal:   a.lhpTotal,
				LHPMax:     a.lhpMax,
				Steals:     a.steals,
				Freezes:    a.freezes,
				Unfreezes:  a.unfreezes,
				FutexWaits: a.futexWaits,
				FutexWakes: a.futexWakes,
			}
			if tail := end - a.since; tail > 0 {
				row.Dwell[a.effective()] += tail
			}
			for _, dw := range row.Dwell {
				row.Total += dw
			}
			row.WakeCount = uint64(a.wakeLat.Count())
			if row.WakeCount > 0 {
				row.WakeMeanUs = a.wakeLat.Mean()
				row.WakeP50Us = a.wakeLat.Quantile(0.5)
				row.WakeP99Us = a.wakeLat.Quantile(0.99)
				row.WakeMaxUs = a.wakeLat.Max()
			}
			row.IPICount = uint64(a.ipiLat.Count())
			if row.IPICount > 0 {
				row.IPIMeanUs = a.ipiLat.Mean()
				row.IPIP99Us = a.ipiLat.Quantile(0.99)
			}
			s.VCPUs = append(s.VCPUs, row)
		}
	}
	return s
}
