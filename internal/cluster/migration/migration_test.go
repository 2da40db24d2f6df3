package migration

import (
	"testing"

	"vscale/internal/sim"
)

func TestPreCopyIdleVMConvergesInOneRound(t *testing.T) {
	cfg := DefaultConfig()
	p := PreCopy(cfg, 128<<20, 0)
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
	cfg := DefaultConfig()
	cfg.DowntimeCap = 0 // observe the raw residual transfer
	// Dirtying exactly as fast as the link drains: every round copies
	// the same amount and the dirty set never shrinks.
	p := PreCopy(cfg, 256<<20, cfg.LinkBps/8)
	if p.Rounds != cfg.MaxRounds {
		t.Fatalf("hot VM: want the %d-round cap, got %d", cfg.MaxRounds, p.Rounds)
	}
	if p.Converged {
		t.Fatalf("hot VM: must not report convergence at the round cap")
	}
	if p.Downtime <= downtimeFloor {
		t.Fatalf("hot VM: downtime %v should exceed the floor %v", p.Downtime, downtimeFloor)
	}
}

func TestPreCopyDowntimeCap(t *testing.T) {
	cfg := DefaultConfig()
	// Dirtying much faster than the link: a huge residue stop-and-copies.
	p := PreCopy(cfg, 512<<20, 4*cfg.LinkBps/8)
	if p.Downtime != cfg.DowntimeCap {
		t.Fatalf("runaway VM: downtime %v, want the cap %v", p.Downtime, cfg.DowntimeCap)
	}
}

func TestPreCopyMonotoneInDirtyRate(t *testing.T) {
	cfg := DefaultConfig()
	prevDur := sim.Time(-1)
	prevBytes := int64(-1)
	for _, dirty := range []float64{0, 50e6, 200e6, 800e6} {
		p := PreCopy(cfg, 128<<20, dirty)
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
	cfg := DefaultConfig()
	p := PreCopy(cfg, 0, 1e9)
	if p.Rounds != 0 || p.Bytes != 0 || p.Duration != 0 {
		t.Fatalf("zero-memory VM: want an empty plan, got %+v", p)
	}
	if p.Downtime != downtimeFloor {
		t.Fatalf("zero-memory VM: downtime %v, want the floor", p.Downtime)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config must validate: %v", err)
	}
	bad := DefaultConfig()
	bad.LinkBps = 0
	if err := bad.Validate(); err == nil {
		t.Fatalf("zero link budget must be rejected")
	}
	bad = DefaultConfig()
	bad.MaxRounds = 0
	if err := bad.Validate(); err == nil {
		t.Fatalf("zero round cap must be rejected")
	}
}
