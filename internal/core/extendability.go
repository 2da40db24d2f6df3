// Package core implements the vScale paper's primary contribution as a
// pure, simulator-independent library: the CPU-extendability calculation
// (Algorithm 1), the vCPU reconfiguration protocol plan (Algorithm 2),
// and the scaling governor that turns extendability readings into
// freeze/unfreeze decisions. Being pure functions over explicit inputs,
// everything here is property-testable in isolation and reusable by any
// proportional-share hypervisor scheduler.
package core

import (
	"fmt"
	"math"
	"slices"

	"vscale/internal/sim"
)

// VMStat is one VM's scheduling state over the last extendability period,
// as observed by the hypervisor scheduler.
type VMStat struct {
	// ID names the VM (domain) for result correlation.
	ID string

	// Weight is the VM's proportional-share weight. vScale defines weight
	// per-VM (not per-vCPU), so freezing vCPUs does not forfeit credit.
	Weight float64

	// Consumption is the CPU time the VM actually consumed during the
	// period, summed over all its vCPUs (so it may exceed the period
	// length for SMP VMs).
	Consumption sim.Time

	// ReservationPCPUs is the VM's guaranteed lower bound, in pCPUs
	// (0 = none).
	ReservationPCPUs float64

	// CapPCPUs is the VM's upper bound, in pCPUs (0 = uncapped).
	CapPCPUs float64

	// MaxVCPUs is the number of vCPUs the VM was configured with; the
	// optimal count never exceeds it. Zero means unconstrained.
	MaxVCPUs int

	// UP marks uniprocessor VMs, which have no room for scaling; their
	// extendability is still computed, but OptimalVCPUs is pinned to 1.
	UP bool
}

// Extendability is the per-VM output of Algorithm 1.
type Extendability struct {
	ID string

	// FairShare is s_fair(t) = w_i/Σw · t · P: the CPU time the VM is
	// entitled to in one period under pure weight-proportional sharing.
	FairShare sim.Time

	// Extend is s_ext(t): the maximum CPU time the VM could receive in
	// one period given current machine-wide consumption (its fair share
	// plus, for competitors, its weighted share of the slack), clamped by
	// reservation and cap.
	Extend sim.Time

	// OptimalVCPUs is ⌈s_ext/t⌉ clamped to [1, MaxVCPUs]: how many
	// full-capacity pCPUs the VM can use, allowing one extra vCPU for a
	// partial allocation.
	OptimalVCPUs int

	// Competitor reports whether the VM over-consumed its fair share
	// (true) or released CPU to others (false).
	Competitor bool
}

// ceilDivEps returns ⌈a/b⌉ with a small relative tolerance so that
// floating-point noise (e.g. 2.0000000001 pCPUs) does not cost an
// extra vCPU.
func ceilDivEps(a, b float64) int {
	q := a / b
	const eps = 1e-9
	f := math.Floor(q)
	if q-f <= eps*(1+math.Abs(q)) {
		if f < 1 {
			return int(math.Ceil(q - eps))
		}
		return int(f)
	}
	return int(math.Ceil(q))
}

// ComputeExtendability implements Algorithm 1 of the paper. Given the
// per-VM stats for one period of length t over a pool of P pCPUs, it
// computes each VM's fair share, CPU extendability and optimal vCPU
// count, one result per VM in order. The results are written into dst,
// a buffer the caller owns: dst is truncated, grown if its capacity is
// short, refilled and returned, so a caller that passes the previous
// result back in allocates nothing. A nil dst is fine.
//
// VMs that under-used their fair allocation (releasers) contribute the
// difference to a machine-wide slack; their extendability is pinned to
// their fair share so they can always ramp back up to their deserved
// parallelism. VMs that consumed at least their fair share (competitors)
// split the slack in proportion to their weights, on top of their fair
// share. The function enforces max-min fairness and is, by construction,
// independent of how many vCPUs each VM currently runs — so a VM cannot
// manipulate its vCPU count for extra allocation.
//
// It panics if P <= 0, t <= 0, or any weight is non-positive, since those
// are configuration errors.
func ComputeExtendability(dst []Extendability, vms []VMStat, P int, t sim.Time) []Extendability {
	if P <= 0 {
		panic(fmt.Sprintf("core: non-positive pool size %d", P))
	}
	if t <= 0 {
		panic(fmt.Sprintf("core: non-positive period %v", t))
	}
	if len(vms) == 0 {
		return dst[:0]
	}

	var totalWeight float64
	for _, vm := range vms {
		if vm.Weight <= 0 {
			panic(fmt.Sprintf("core: VM %q has non-positive weight %v", vm.ID, vm.Weight))
		}
		totalWeight += vm.Weight
	}

	period := float64(t)
	poolTime := period * float64(P)

	out := slices.Grow(dst[:0], len(vms))[:len(vms)]
	var slack float64 // c_slack: unused CPU capacity this period
	var competitorWeight float64

	// First pass (lines 6–15): classify VMs, accumulate slack, and give
	// releasers their fair share as extendability.
	for i, vm := range vms {
		fair := vm.Weight / totalWeight * poolTime
		out[i] = Extendability{ID: vm.ID, FairShare: sim.Time(fair)}
		consumed := float64(vm.Consumption)
		if consumed < fair {
			slack += fair - consumed
			out[i].Extend = sim.Time(fair)
		} else {
			out[i].Competitor = true
			competitorWeight += vm.Weight
		}
	}

	// Second pass (lines 16–19): competitors share the slack in
	// proportion to their weights, on top of their fair share.
	for i, vm := range vms {
		if out[i].Competitor {
			ext := vm.Weight/competitorWeight*slack + float64(out[i].FairShare)
			out[i].Extend = sim.Time(ext)
		}
		out[i].Extend = clampExtend(out[i].Extend, vm, t)
		out[i].OptimalVCPUs = optimalVCPUs(out[i].Extend, vm, t)
	}
	return out
}

// clampExtend applies the VM's reservation (lower bound) and cap (upper
// bound) to its extendability, and never exceeds the physical maximum of
// MaxVCPUs full pCPUs.
func clampExtend(ext sim.Time, vm VMStat, t sim.Time) sim.Time {
	if vm.ReservationPCPUs > 0 {
		if lo := sim.Time(vm.ReservationPCPUs * float64(t)); ext < lo {
			ext = lo
		}
	}
	if vm.CapPCPUs > 0 {
		if hi := sim.Time(vm.CapPCPUs * float64(t)); ext > hi {
			ext = hi
		}
	}
	if vm.MaxVCPUs > 0 {
		if hi := sim.Time(vm.MaxVCPUs) * t; ext > hi {
			ext = hi
		}
	}
	return ext
}

// optimalVCPUs converts extendability into a vCPU count: ⌈ext/t⌉,
// allowing one additional vCPU for a partial pCPU allocation, clamped to
// [1, MaxVCPUs] (and to exactly 1 for UP VMs).
func optimalVCPUs(ext sim.Time, vm VMStat, t sim.Time) int {
	if vm.UP {
		return 1
	}
	n := ceilDivEps(float64(ext), float64(t))
	if n < 1 {
		n = 1
	}
	if vm.MaxVCPUs > 0 && n > vm.MaxVCPUs {
		n = vm.MaxVCPUs
	}
	return n
}

// OptimalWithMargin recomputes the optimal vCPU count from a raw
// extendability value with a fragmentation margin subtracted before the
// ceiling: n = max(1, ⌈ext/t − margin⌉).
//
// Algorithm 1 takes a pure ceiling (margin 0) so a partial pCPU
// allocation still gets a vCPU. For synchronisation-bound guests that
// partial vCPU is frequently counter-productive: it is entitled to only
// a fraction of a pCPU, so it is descheduled in 30 ms slices and every
// barrier or lock episode that lands on it stalls the whole team. The
// margin makes the guest claim the extra vCPU only when the partial
// allocation is substantial (ext fraction > margin). The reproduction
// uses margin 0.55 by default (guest.DefaultConfig); the A5 ablation
// bench compares it with the paper's pure ceiling.
func OptimalWithMargin(ext, t sim.Time, margin float64, maxVCPUs int) int {
	if t <= 0 {
		panic("core: non-positive period")
	}
	q := float64(ext)/float64(t) - margin
	n := ceilDivEps(q, 1)
	if n < 1 {
		n = 1
	}
	if maxVCPUs > 0 && n > maxVCPUs {
		n = maxVCPUs
	}
	return n
}

// PoolSlack returns the total slack the releasers contributed in the
// given results (derived quantity, exposed for diagnostics and tests).
func PoolSlack(vms []VMStat, results []Extendability) sim.Time {
	var slack sim.Time
	for i, vm := range vms {
		if i < len(results) && !results[i].Competitor {
			slack += results[i].FairShare - vm.Consumption
		}
	}
	return slack
}
