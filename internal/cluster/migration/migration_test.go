package migration

import (
	"testing"

	"vscale/internal/sim"
)

func TestPreCopyIdleVMConvergesInOneRound(t *testing.T) {
	p := PreCopy(128<<20, 0)
	if p.Rounds != 1 {
		t.Fatalf("idle VM: want 1 round, got %d", p.Rounds)
	}
	if !p.Converged {
		t.Fatalf("idle VM: want convergence")
	}
	if p.Downtime != downtimeFloor {
		t.Fatalf("idle VM: downtime %v, want the floor %v", p.Downtime, downtimeFloor)
	}
	if p.Bytes != 128<<20 {
		t.Fatalf("idle VM: want one full image copy, got %d bytes", p.Bytes)
	}
}

func TestPreCopyHotVMHitsRoundCap(t *testing.T) {
	// Dirtying exactly as fast as the link drains: every round copies
	// the same 16 MiB and the dirty set never shrinks to stopCopyBytes.
	p := PreCopy(16<<20, linkBps/8)
	if p.Rounds != maxRounds {
		t.Fatalf("hot VM: want the %d-round cap, got %d", maxRounds, p.Rounds)
	}
	if p.Converged {
		t.Fatalf("hot VM: must not report convergence at the round cap")
	}
	// The 16 MiB residue takes ~13 ms at 10 Gbps: above the floor and
	// below the cap, so the raw residual transfer shows.
	if p.Downtime <= downtimeFloor || p.Downtime >= downtimeCap {
		t.Fatalf("hot VM: downtime %v, want between the floor %v and the cap %v", p.Downtime, downtimeFloor, downtimeCap)
	}
}

func TestPreCopyDowntimeCap(t *testing.T) {
	// Dirtying much faster than the link: a huge residue stop-and-copies.
	p := PreCopy(512<<20, 4*linkBps/8)
	if p.Downtime != downtimeCap {
		t.Fatalf("runaway VM: downtime %v, want the cap %v", p.Downtime, downtimeCap)
	}
}

func TestPreCopyMonotoneInDirtyRate(t *testing.T) {
	prevDur := sim.Time(-1)
	prevBytes := int64(-1)
	for _, dirty := range []float64{0, 50e6, 200e6, 800e6} {
		p := PreCopy(128<<20, dirty)
		if p.Duration < prevDur {
			t.Fatalf("duration not monotone in dirty rate at %g", dirty)
		}
		if p.Bytes < prevBytes {
			t.Fatalf("bytes not monotone in dirty rate at %g", dirty)
		}
		prevDur, prevBytes = p.Duration, p.Bytes
	}
}

func TestPreCopyZeroMemory(t *testing.T) {
	p := PreCopy(0, 1e9)
	if p.Rounds != 0 || p.Bytes != 0 || p.Duration != 0 {
		t.Fatalf("zero-memory VM: want an empty plan, got %+v", p)
	}
	if p.Downtime != downtimeFloor {
		t.Fatalf("zero-memory VM: downtime %v, want the floor", p.Downtime)
	}
}
