// Package migration models pre-copy live migration of a VM between
// hosts: iterative memory-copy rounds over a dedicated migration link,
// a dirty-page rate that re-dirties pages while each round is in
// flight, and a final stop-and-copy cutover whose duration is the
// migration's downtime. The model is pure arithmetic — no simulation
// state — so the cluster control plane can plan a migration at an
// epoch boundary and know its total duration, transferred bytes and
// downtime up front.
package migration

import (
	"fmt"

	"vscale/internal/sim"
)

// MemBytesPerVCPU sizes a VM's memory image proportionally to its vCPU
// count: 64 MiB per vCPU.
const MemBytesPerVCPU int64 = 64 << 20

const (
	// stopCopyBytes is the convergence threshold: once a round leaves
	// at most this many dirty bytes the next copy happens with the VM
	// stopped. 8 MiB is small enough that a mostly idle VM converges in
	// one round, large enough that a hot VM takes several.
	stopCopyBytes int64 = 8 << 20
	// downtimeFloor is the fixed cutover cost (pause, device state,
	// resume handshake) added to the stop-and-copy transfer time.
	downtimeFloor = 3 * sim.Millisecond
)

// Config parameterises the pre-copy model.
type Config struct {
	// LinkBps is the migration link budget in bits per second. The
	// cluster throttles guest I/O while a migration holds the link.
	LinkBps float64
	// MaxRounds caps the iterative copy phase: a VM that dirties memory
	// faster than the link drains it would otherwise never converge.
	MaxRounds int
	// DowntimeCap bounds the modeled downtime; non-convergent
	// migrations stop-and-copy whatever is left, and the cap keeps the
	// blackout within one scheduling epoch. Zero means uncapped.
	DowntimeCap sim.Time
}

// DefaultConfig returns a 10 Gbps migration link, at most 8 copy
// rounds and a 100 ms downtime cap.
func DefaultConfig() Config {
	return Config{
		LinkBps:     10e9,
		MaxRounds:   8,
		DowntimeCap: 100 * sim.Millisecond,
	}
}

// Validate rejects configurations the model cannot plan with.
func (c Config) Validate() error {
	if c.LinkBps <= 0 {
		return fmt.Errorf("migration: LinkBps must be positive, got %g", c.LinkBps)
	}
	if c.MaxRounds < 1 {
		return fmt.Errorf("migration: MaxRounds must be >= 1, got %d", c.MaxRounds)
	}
	if c.DowntimeCap < 0 {
		return fmt.Errorf("migration: downtime cap must be >= 0")
	}
	return nil
}

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
	// residual dirty transfer, bounded by DowntimeCap.
	Downtime sim.Time
	// Converged reports whether the dirty set shrank below
	// stopCopyBytes (false means the round cap forced the cutover).
	Converged bool
}

// PreCopy plans the migration of a VM with memBytes of memory dirtying
// at dirtyBps bytes per second. Round i copies the bytes left dirty by
// round i-1 (round 1 copies everything); the copy takes bytes/byteRate
// seconds, during which the guest dirties dirtyBps * t fresh bytes.
// The iteration stops when the residue fits stopCopyBytes or MaxRounds
// is hit, and the residue moves during the stop-and-copy blackout.
func PreCopy(cfg Config, memBytes int64, dirtyBps float64) Plan {
	byteRate := cfg.LinkBps / 8
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
		if dirtied <= float64(stopCopyBytes) || r == cfg.MaxRounds {
			residue = dirtied
			p.Converged = dirtied <= float64(stopCopyBytes)
			break
		}
		toCopy = dirtied
	}
	p.Bytes += int64(residue)
	dt := downtimeFloor + sim.Time(residue/byteRate*float64(sim.Second))
	if cfg.DowntimeCap > 0 && dt > cfg.DowntimeCap {
		dt = cfg.DowntimeCap
	}
	p.Downtime = dt
	return p
}
