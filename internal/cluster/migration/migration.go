// Package migration models pre-copy live migration of a VM between
// hosts: iterative memory-copy rounds over a dedicated migration link,
// a dirty-page rate that re-dirties pages while each round is in
// flight, and a final stop-and-copy cutover whose duration is the
// migration's downtime. The model is pure arithmetic — no simulation
// state — so the cluster control plane can plan a migration at an
// epoch boundary and know its total duration, transferred bytes and
// downtime up front.
package migration

import "vscale/internal/sim"

// MemBytesPerVCPU sizes a VM's memory image proportionally to its vCPU
// count: 64 MiB per vCPU.
const MemBytesPerVCPU int64 = 64 << 20

const (
	// linkBps is the migration link budget in bits per second (10 Gbps).
	// The cluster throttles guest I/O while a migration holds the link.
	linkBps float64 = 10e9
	// maxRounds caps the iterative copy phase: a VM that dirties memory
	// faster than the link drains it would otherwise never converge.
	maxRounds = 8
	// downtimeCap bounds the modeled downtime: non-convergent migrations
	// stop-and-copy whatever is left, and the cap keeps the blackout
	// within one scheduling epoch.
	downtimeCap = 100 * sim.Millisecond
	// stopCopyBytes is the convergence threshold: once a round leaves
	// at most this many dirty bytes the next copy happens with the VM
	// stopped. 8 MiB is small enough that a mostly idle VM converges in
	// one round, large enough that a hot VM takes several.
	stopCopyBytes int64 = 8 << 20
	// downtimeFloor is the fixed cutover cost (pause, device state,
	// resume handshake) added to the stop-and-copy transfer time.
	downtimeFloor = 3 * sim.Millisecond
)

// Plan is the outcome of planning one pre-copy migration.
type Plan struct {
	// Rounds is the number of iterative copy rounds before cutover.
	Rounds int
	// Bytes is the total payload over the link, including the final
	// stop-and-copy transfer.
	Bytes int64
	// Duration is the live pre-copy phase: the VM keeps running on the
	// source for this long before cutover.
	Duration sim.Time
	// Downtime is the stop-and-copy blackout: downtimeFloor plus the
	// residual dirty transfer, bounded by downtimeCap.
	Downtime sim.Time
	// Converged reports whether the dirty set shrank below
	// stopCopyBytes (false means the round cap forced the cutover).
	Converged bool
}

// PreCopy plans the migration of a VM with memBytes of memory dirtying
// at dirtyBps bytes per second. Round i copies the bytes left dirty by
// round i-1 (round 1 copies everything); the copy takes bytes/byteRate
// seconds, during which the guest dirties dirtyBps * t fresh bytes.
// The iteration stops when the residue fits stopCopyBytes or maxRounds
// is hit, and the residue moves during the stop-and-copy blackout.
func PreCopy(memBytes int64, dirtyBps float64) Plan {
	byteRate := linkBps / 8
	p := Plan{Converged: true}
	if memBytes <= 0 {
		p.Downtime = downtimeFloor
		return p
	}
	toCopy := float64(memBytes)
	residue := 0.0
	for r := 1; ; r++ {
		p.Rounds = r
		t := toCopy / byteRate
		p.Bytes += int64(toCopy)
		p.Duration += sim.Time(t * float64(sim.Second))
		dirtied := dirtyBps * t
		if dirtied <= float64(stopCopyBytes) || r == maxRounds {
			residue = dirtied
			p.Converged = dirtied <= float64(stopCopyBytes)
			break
		}
		toCopy = dirtied
	}
	p.Bytes += int64(residue)
	dt := downtimeFloor + sim.Time(residue/byteRate*float64(sim.Second))
	if dt > downtimeCap {
		dt = downtimeCap
	}
	p.Downtime = dt
	return p
}
