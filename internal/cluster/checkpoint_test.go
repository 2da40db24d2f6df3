package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vscale/internal/sim"
	"vscale/internal/telemetry"
)

// warmFork simulates cfg's warm prefix once, without telemetry, and
// forks one restored fleet per policy from it, the CaptureWarmPrefix and
// RunFleetFork pair the experiments and the benchmark use. Each fork
// keeps cfg.Telemetry.
func warmFork(t *testing.T, cfg FleetConfig, events []Event, policies ...string) []FleetResult {
	t.Helper()
	prefix := cfg
	prefix.Telemetry = nil
	cp, err := CaptureWarmPrefix(prefix, events)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]FleetResult, 0, len(policies))
	for _, p := range policies {
		fcfg := cfg
		fcfg.Policy = p
		r, err := RunFleetFork(fcfg, events, cp)
		if err != nil {
			t.Fatalf("fork %s: %v", p, err)
		}
		out = append(out, r)
	}
	return out
}

// TestWarmForkIdentical is the correctness gate behind warm-fork: for
// every policy, two seeds and both worker counts, the forked run
// (shared warm prefix, restored at the warm boundary) must reproduce
// the straight-through run's FleetResult exactly.
func TestWarmForkIdentical(t *testing.T) {
	const warm = 3
	policies := PolicyNames()
	for _, seed := range []uint64{11, 23} {
		for _, workers := range []int{1, 4} {
			cfg := smallFleet("", workers)
			cfg.Seed = seed
			cfg.WarmEpochs = warm
			events := GenTrace(DefaultTraceConfig(cfg.Horizon), seed)

			straight := make([]FleetResult, 0, len(policies))
			for _, p := range policies {
				scfg := cfg
				scfg.Policy = p
				r, err := RunFleet(scfg, events)
				if err != nil {
					t.Fatalf("straight %s: %v", p, err)
				}
				straight = append(straight, r)
			}
			forked := warmFork(t, cfg, events, policies...)
			for i, p := range policies {
				assertSameResult(t, fmt.Sprintf("%s seed=%d workers=%d", p, seed, workers),
					straight[i], forked[i])
			}
		}
	}
}

// TestWarmForkTelemetryIdentical: the forked run's JSONL telemetry
// stream must be byte-identical to the straight-through warm run's.
func TestWarmForkTelemetryIdentical(t *testing.T) {
	run := func(fork bool) string {
		var buf bytes.Buffer
		sink, err := telemetry.NewSink("", &buf)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallFleet("vscale", 2)
		cfg.WarmEpochs = 3
		events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)
		cfg.Telemetry = telemetry.NewCollector(sink, false, "policy", "vscale")
		if fork {
			warmFork(t, cfg, events, "vscale")
		} else if _, err := RunFleet(cfg, events); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	straight := run(false)
	forked := run(true)
	if straight != forked {
		t.Fatalf("telemetry streams differ:\n--- straight ---\n%s\n--- forked ---\n%s", straight, forked)
	}
	// 6 epochs with a 3-epoch warm prefix: boundaries 3..6 collect, plus
	// the terminal post-drain record.
	if got, want := len(strings.Split(strings.TrimSuffix(straight, "\n"), "\n")), 5; got != want {
		t.Fatalf("got %d telemetry records, want %d", got, want)
	}
}

// TestCaptureStateRefusesArmedHost: only a disarmed host is
// checkpointable. An armed host is refused whatever its policy's
// mechanism, even one with no VM yet.
func TestCaptureStateRefusesArmedHost(t *testing.T) {
	for _, policy := range []string{"static", "vscale", "pid"} {
		for _, disarmed := range []bool{false, true} {
			pol, err := NewPolicy(policy)
			if err != nil {
				t.Fatal(err)
			}
			h, err := NewHost(0, HostConfig{PCPUs: 2, Seed: 1, Policy: pol, SLO: 20 * sim.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if !disarmed {
				h.Arm()
			}
			_, err = h.CaptureState()
			if disarmed && err != nil {
				t.Fatalf("%s: disarmed host refused: %v", policy, err)
			}
			if !disarmed && (err == nil || !strings.Contains(err.Error(), "armed")) {
				t.Fatalf("%s: armed host captured, err = %v", policy, err)
			}
		}
	}
}

// TestCheckpointDigestStable: the digest is a pure function of the
// simulated state — identical across repeated captures and worker
// counts, different once any field changes.
func TestCheckpointDigestStable(t *testing.T) {
	cfg := smallFleet("", 1)
	cfg.WarmEpochs = 3
	events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)
	a, err := CaptureWarmPrefix(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := cfg
	cfg4.Workers = 4
	b, err := CaptureWarmPrefix(cfg4, events)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("digest not stable across worker counts: %q vs %q", a.Digest, b.Digest)
	}
	other := cfg
	other.Seed = 23
	c, err := CaptureWarmPrefix(other, GenTrace(DefaultTraceConfig(cfg.Horizon), 23))
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Fatal("different seeds produced the same digest")
	}
	b.Hosts[0].Dom0Reads++
	mutated, err := b.ComputeDigest()
	if err != nil {
		t.Fatal(err)
	}
	if mutated == a.Digest {
		t.Fatal("mutated snapshot kept the original digest")
	}
}

// TestCheckpointRoundTripAndCorruption: encode/decode round-trips, and
// a corrupted byte fails the digest check.
func TestCheckpointRoundTripAndCorruption(t *testing.T) {
	cfg := smallFleet("", 1)
	cfg.WarmEpochs = 2
	events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)
	cp, err := CaptureWarmPrefix(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest != cp.Digest || back.Boundary != cp.Boundary || len(back.Hosts) != len(cp.Hosts) {
		t.Fatal("round-trip changed the snapshot")
	}
	bad := bytes.Replace(data, []byte(`"dom0_reads":`), []byte(`"dom0_reads":1`), 1)
	if _, err := DecodeCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("corrupted checkpoint decoded without a digest error: %v", err)
	}
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digest != cp.Digest {
		t.Fatal("file round-trip changed the digest")
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("truncated checkpoint loaded without error")
	}
}

// reseal returns a copy of cp with edit applied and the digest
// recomputed: a hand-edited file that DecodeCheckpoint still accepts.
func reseal(t *testing.T, cp *FleetCheckpoint, edit func(*FleetCheckpoint)) *FleetCheckpoint {
	t.Helper()
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	edit(c)
	if c.Digest, err = c.ComputeDigest(); err != nil {
		t.Fatal(err)
	}
	if data, err = c.Encode(); err != nil {
		t.Fatal(err)
	}
	if c, err = DecodeCheckpoint(data); err != nil {
		t.Fatalf("re-sealed checkpoint failed to decode: %v", err)
	}
	return c
}

// TestRunFleetForkValidation: a snapshot only restores into the run it
// came from, and a re-sealed edit of a value the restore or the
// executor reads is an error, not a panic: the structures the executor
// indexes with, the armed flags, RNG states, clocks, the freeze mask,
// generator rates and placement weights.
func TestRunFleetForkValidation(t *testing.T) {
	cfg := smallFleet("vscale", 1)
	cfg.Horizon = 8 * sim.Second
	cfg.WarmEpochs = 4
	tcfg := DefaultTraceConfig(cfg.Horizon)
	tcfg.ArrivalEvery = 300 * sim.Millisecond
	events := GenTrace(tcfg, cfg.Seed)
	cp, err := CaptureWarmPrefix(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	var ring []int
	for _, rb := range cp.Ring {
		ring = append(ring, rb.Boundary)
	}
	if fmt.Sprint(ring) != "[1 2 3 4]" {
		t.Fatalf("warm capture retains ring boundaries %v, want [1 2 3 4]", ring)
	}
	configs := []struct {
		name   string
		mutate func(c *FleetConfig)
	}{
		{"seed", func(c *FleetConfig) { c.Seed++ }},
		{"hosts", func(c *FleetConfig) { c.Hosts++ }},
		{"horizon", func(c *FleetConfig) { c.Horizon += sim.Second }},
		{"warm", func(c *FleetConfig) { c.WarmEpochs++ }},
	}
	for _, tc := range configs {
		bad := cfg
		tc.mutate(&bad)
		if _, err := RunFleetFork(bad, events, cp); err == nil {
			t.Fatalf("%s mismatch restored without error", tc.name)
		}
	}
	// liveVM is the first captured VM still running: its generator
	// resumes at the fork.
	liveVM := func(c *FleetCheckpoint) *VMCheckpoint {
		for i := range c.Hosts {
			for j := range c.Hosts[i].VMs {
				if v := &c.Hosts[i].VMs[j]; !v.Retired {
					return v
				}
			}
		}
		return nil
	}
	if liveVM(cp) == nil || len(cp.Hosts[0].Pending) == 0 {
		t.Fatal("warm capture holds no live VM or no pending event on host 0")
	}
	tampers := []struct {
		name string
		edit func(c *FleetCheckpoint)
		want string
	}{
		{"armed", func(c *FleetCheckpoint) { c.Armed = true }, "armed"},
		{"host armed", func(c *FleetCheckpoint) { c.Hosts[0].Armed = true }, "armed"},
		{"engine rand zero", func(c *FleetCheckpoint) { c.Hosts[0].Engine.Rand = sim.RandState{} }, "all-zero"},
		{"kernel rand zero", func(c *FleetCheckpoint) { liveVM(c).Kernel.Rand = sim.RandState{} }, "all-zero"},
		{"dom0 rand zero", func(c *FleetCheckpoint) { c.Hosts[0].Dom0Rand = sim.RandState{} }, "all-zero"},
		{"generator rand zero", func(c *FleetCheckpoint) { liveVM(c).Gen.Rand = sim.RandState{} }, "all-zero"},
		{"host clock", func(c *FleetCheckpoint) { c.Hosts[0].Engine.Now += sim.Second }, "snapshot time"},
		{"pending before now", func(c *FleetCheckpoint) { c.Hosts[0].Pending[0].When = c.Now - 1 }, "predates"},
		{"freeze mask", func(c *FleetCheckpoint) { liveVM(c).Kernel.FreezeMask = ^uint64(0) }, "freeze mask"},
		{"generator rate", func(c *FleetCheckpoint) { liveVM(c).Gen.Rate = 1e300 }, "out of range"},
		{"ring weight", func(c *FleetCheckpoint) {
			for _, rb := range c.Ring {
				for _, stats := range rb.Stats {
					for i := range stats {
						stats[i].Weight = 0
					}
				}
			}
		}, "weight 0"},
		{"probe weight", func(c *FleetCheckpoint) {
			for _, log := range c.Router.ProbeLog {
				for i := range log {
					log[i].Stat.Weight = -1
				}
			}
		}, "weight -1"},
		{"lag", func(c *FleetCheckpoint) { c.Config.LagEpochs = 2 }, "lag"},
		{"ring dropped", func(c *FleetCheckpoint) { c.Ring = c.Ring[1:] }, "ring holds"},
		{"ring reordered", func(c *FleetCheckpoint) { c.Ring[0], c.Ring[1] = c.Ring[1], c.Ring[0] }, "at slot 0"},
		{"owner out of range", func(c *FleetCheckpoint) {
			for vm := range c.Router.Owner {
				c.Router.Owner[vm] = 99
				break
			}
		}, "on host 99"},
	}
	for _, tc := range tampers {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunFleetFork(cfg, events, reseal(t, cp, tc.edit))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("re-sealed %s edit: err = %v, want one containing %q", tc.name, err, tc.want)
			}
		})
	}
	if _, err := RunFleetFork(cfg, events, cp); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	if _, err := CaptureWarmPrefix(smallFleet("static", 1), events); err == nil {
		t.Fatal("CaptureWarmPrefix accepted WarmEpochs=0")
	}
}
