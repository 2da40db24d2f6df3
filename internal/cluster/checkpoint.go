package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"vscale/internal/core"
	"vscale/internal/guest"
	"vscale/internal/loadgen"
	"vscale/internal/runner"
	"vscale/internal/sim"
	"vscale/internal/workload/httpd"
	"vscale/internal/xen"
)

// Fleet-level checkpoint/restore (docs/checkpoint.md). A fleet is
// captured only at an epoch boundary where every host has quiesced:
// the load generators paused one epoch earlier so in-flight requests
// drained, every guest and pool idle, and the only live engine events
// the periodic hypervisor timers and vCPU timers — all re-armable
// from (label, deadline, seq) descriptors. The snapshot is pure
// semantic state (no closures), serialized as canonical JSON under a
// versioned header with a sha256 digest, which is what makes the
// warm-fork mode sound: one warm-up prefix is simulated once, then
// every policy variant forks from the same bytes.

// CheckpointVersion is the snapshot format identifier.
const CheckpointVersion = "vscale-checkpoint/v1"

// VMCheckpoint is the semantic state of one VM resident on a host.
type VMCheckpoint struct {
	Name          string                 `json:"name"`
	VCPUs         int                    `json:"vcpus"`
	Seed          uint64                 `json:"seed"`
	Retired       bool                   `json:"retired"`
	LastConsumed  sim.Time               `json:"last_consumed"`
	EpochConsumed sim.Time               `json:"epoch_consumed"`
	PolicyOps     uint64                 `json:"policy_ops"`
	Cost          float64                `json:"cost"`
	Kernel        guest.KernelCheckpoint `json:"kernel"`
	Server        httpd.Checkpoint       `json:"server"`
	Gen           loadgen.State          `json:"gen"`
}

// HostCheckpoint is the semantic state of one quiesced host: engine
// scalars, the descriptor list for its pending events, the pool, the
// dom0 sampler, and every VM in admission order. Armed is always false:
// only a disarmed host is captured, and restore rejects true.
type HostCheckpoint struct {
	Engine    sim.EngineState    `json:"engine"`
	Pending   []sim.PendingEvent `json:"pending"`
	Pool      xen.PoolCheckpoint `json:"pool"`
	Dom0Rand  sim.RandState      `json:"dom0_rand"`
	Dom0Reads uint64             `json:"dom0_reads"`
	Armed     bool               `json:"armed"`
	VMs       []VMCheckpoint     `json:"vms"`
}

// ProbeCheckpoint is one router staleness-correction probe.
type ProbeCheckpoint struct {
	Epoch int         `json:"epoch"`
	VCPUs int         `json:"vcpus"`
	Stat  core.VMStat `json:"stat"`
}

// RouterCheckpoint is the control-plane routing state: VM ownership,
// the per-host probe logs (probes and committed corrections are
// recomputed from them at the next arrival epoch), and the churn
// counters accumulated so far.
type RouterCheckpoint struct {
	Owner        map[string]int      `json:"owner"`
	ProbeLog     [][]ProbeCheckpoint `json:"probe_log"`
	Placed       int                 `json:"placed"`
	Departed     int                 `json:"departed"`
	PhaseChanges int                 `json:"phase_changes"`
	Placements   []Placement         `json:"placements,omitempty"`
}

// RingBoundary is one retained placement snapshot: per-host VM stats
// and committed vCPUs at an epoch boundary some post-restore arrival
// epoch will place with.
type RingBoundary struct {
	Boundary  int             `json:"boundary"`
	Stats     [][]core.VMStat `json:"stats"`
	Committed []int           `json:"committed"`
}

// CheckpointConfig is the identity of the run a snapshot belongs to;
// restore cross-checks every field against the restoring FleetConfig.
// A warm capture is policy- and elasticity-mode-free by construction:
// one snapshot serves every fork.
type CheckpointConfig struct {
	Hosts        int      `json:"hosts"`
	PCPUsPerHost int      `json:"pcpus_per_host"`
	Seed         uint64   `json:"seed"`
	Horizon      sim.Time `json:"horizon"`
	Epoch        sim.Time `json:"epoch"`
	Drain        sim.Time `json:"drain"`
	SLO          sim.Time `json:"slo"`
	LagEpochs    int      `json:"lag_epochs"`
	WarmEpochs   int      `json:"warm_epochs"`
}

// FleetCheckpoint is one complete fleet snapshot at the warm boundary.
// Armed is always false, like every host's: restore rejects true.
type FleetCheckpoint struct {
	Version  string           `json:"version"`
	Config   CheckpointConfig `json:"config"`
	Boundary int              `json:"boundary"`
	Now      sim.Time         `json:"now"`
	Armed    bool             `json:"armed"`
	Hosts    []HostCheckpoint `json:"hosts"`
	Router   RouterCheckpoint `json:"router"`
	Ring     []RingBoundary   `json:"ring,omitempty"`
	// Elasticity is the migration/replica-set control-plane state,
	// present when the captured run had the elasticity layer built.
	// Absent on older checkpoints and elasticity-free runs; a fork with
	// the layer on requires it.
	Elasticity json.RawMessage `json:"elasticity,omitempty"`
	Digest     string          `json:"digest"`
}

// CaptureState exports the host's semantic state. The host must be
// disarmed, parked at an epoch boundary, fully drained (the quiesce
// barrier ran one epoch earlier), and its accounting synced by the
// boundary Snapshot — the warm-prefix executor guarantees all four.
// Capture is read-only.
func (h *Host) CaptureState() (HostCheckpoint, error) {
	if h.err != nil {
		return HostCheckpoint{}, fmt.Errorf("cluster: host %d faulted: %w", h.id, h.err)
	}
	if h.armed {
		return HostCheckpoint{}, fmt.Errorf("cluster: host %d is armed; only a disarmed warm-prefix host is checkpointable", h.id)
	}
	if err := h.pool.QuiesceCheck(); err != nil {
		return HostCheckpoint{}, fmt.Errorf("cluster: host %d: %w", h.id, err)
	}
	cp := HostCheckpoint{
		Engine:    h.eng.CheckpointState(),
		Pending:   h.eng.PendingEvents(),
		Dom0Rand:  h.d0.RandState(),
		Dom0Reads: h.d0.Reads,
	}
	for _, pe := range cp.Pending {
		if !h.pool.Checkpointable(pe.Label) {
			return HostCheckpoint{}, fmt.Errorf("cluster: host %d: pending event %q at %v is not checkpointable",
				h.id, pe.Label, pe.When)
		}
	}
	cp.Pool = h.pool.CaptureState()
	for _, name := range h.order {
		vm := h.vms[name]
		if err := vm.k.QuiesceCheck(); err != nil {
			return HostCheckpoint{}, fmt.Errorf("cluster: host %d: VM %s: %w", h.id, name, err)
		}
		scp, err := vm.srv.CheckpointState()
		if err != nil {
			return HostCheckpoint{}, fmt.Errorf("cluster: host %d: VM %s: %w", h.id, name, err)
		}
		gcp, err := vm.gen.CheckpointState()
		if err != nil {
			return HostCheckpoint{}, fmt.Errorf("cluster: host %d: VM %s: %w", h.id, name, err)
		}
		cp.VMs = append(cp.VMs, VMCheckpoint{
			Name:          name,
			VCPUs:         vm.vcpus,
			Seed:          vm.seed,
			Retired:       vm.retired,
			LastConsumed:  vm.lastConsumed,
			EpochConsumed: vm.epochConsumed,
			PolicyOps:     vm.policyOps,
			Cost:          vm.cost,
			Kernel:        vm.k.CaptureState(),
			Server:        scp,
			Gen:           gcp,
		})
	}
	return cp, nil
}

// RestoreHost rebuilds one host from a disarmed capture: construct it
// disarmed, replay the VM admissions (rate 0 — the captured generator
// state is restored, not re-derived), settle the fresh component tree
// by running it to the captured time (boot events fire, guests block,
// bootstrap timers tick harmlessly), then purge the bootstrap event
// queue, re-arm the captured descriptors in their original FIFO order,
// and overwrite every layer's semantic state, the engine's scalars
// last. The caller arms the host.
func RestoreHost(id int, cfg HostConfig, cp HostCheckpoint) (*Host, error) {
	if cp.Armed {
		return nil, fmt.Errorf("cluster: host %d: checkpoint is armed; only a disarmed warm capture restores", id)
	}
	cfg.Tracer = nil
	h, err := NewHost(id, cfg)
	if err != nil {
		return nil, err
	}
	for _, v := range cp.VMs {
		if err := h.addVM(v.Name, v.VCPUs, 0, v.Seed); err != nil {
			return nil, fmt.Errorf("cluster: host %d: replaying VM %s: %w", id, v.Name, err)
		}
	}
	if err := h.RunEpoch(cp.Engine.Now); err != nil {
		return nil, fmt.Errorf("cluster: host %d: settling rebuilt host: %w", id, err)
	}
	h.eng.PurgeAll()
	// Re-arm in ascending captured sequence order: fresh sequence
	// numbers ascend, so the relative FIFO order among re-armed events —
	// the tiebreak for simultaneous deadlines — matches the capture.
	ordered := append([]sim.PendingEvent(nil), cp.Pending...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })
	for _, pe := range ordered {
		if pe.When < cp.Engine.Now {
			return nil, fmt.Errorf("cluster: host %d: pending event %q at %v predates the checkpoint time %v", id, pe.Label, pe.When, cp.Engine.Now)
		}
		ok, err := h.pool.RearmPending(pe.Label, pe.When)
		if err != nil {
			return nil, fmt.Errorf("cluster: host %d: %w", id, err)
		}
		if !ok {
			return nil, fmt.Errorf("cluster: host %d: no owner for pending event %q", id, pe.Label)
		}
	}
	if err := h.pool.RestoreState(cp.Pool); err != nil {
		return nil, fmt.Errorf("cluster: host %d: %w", id, err)
	}
	for i, name := range h.order {
		vm, v := h.vms[name], cp.VMs[i]
		if err := vm.k.RestoreState(v.Kernel); err != nil {
			return nil, fmt.Errorf("cluster: host %d: VM %s: %w", id, name, err)
		}
		if err := vm.srv.RestoreState(v.Server); err != nil {
			return nil, fmt.Errorf("cluster: host %d: VM %s: %w", id, name, err)
		}
		if err := vm.gen.RestoreState(v.Gen); err != nil {
			return nil, fmt.Errorf("cluster: host %d: VM %s: %w", id, name, err)
		}
		vm.retired = v.Retired
		vm.lastConsumed = v.LastConsumed
		vm.epochConsumed = v.EpochConsumed
		vm.policyOps = v.PolicyOps
		vm.cost = v.Cost
	}
	if err := h.d0.RestoreRand(cp.Dom0Rand); err != nil {
		return nil, fmt.Errorf("cluster: host %d: dom0 sampler: %w", id, err)
	}
	h.d0.Reads = cp.Dom0Reads
	if err := h.eng.RestoreState(cp.Engine); err != nil {
		return nil, fmt.Errorf("cluster: host %d: %w", id, err)
	}
	if got := len(h.eng.PendingEvents()); got != len(cp.Pending) {
		return nil, fmt.Errorf("cluster: host %d: %d pending events after restore, checkpoint has %d",
			id, got, len(cp.Pending))
	}
	return h, nil
}

// captureFleet assembles a fleet snapshot from disarmed hosts parked at
// the warm boundary. ringCPs is the retained placement-snapshot window
// (epochPlan.retained).
func captureFleet(cfg *FleetConfig, hosts []*Host, rt *fleetRouter, res *FleetResult, ringCPs []RingBoundary, boundary int, now sim.Time) (*FleetCheckpoint, error) {
	cp := &FleetCheckpoint{
		Version: CheckpointVersion,
		Config: CheckpointConfig{
			Hosts:        cfg.Hosts,
			PCPUsPerHost: cfg.PCPUsPerHost,
			Seed:         cfg.Seed,
			Horizon:      cfg.Horizon,
			Epoch:        cfg.Epoch,
			Drain:        cfg.Drain,
			SLO:          cfg.SLO,
			LagEpochs:    lagEpochs,
			WarmEpochs:   cfg.WarmEpochs,
		},
		Boundary: boundary,
		Now:      now,
		Ring:     ringCPs,
	}
	for i, h := range hosts {
		hcp, err := h.CaptureState()
		if err != nil {
			return nil, err
		}
		if hcp.Engine.Now != now {
			return nil, fmt.Errorf("cluster: host %d parked at %v, boundary is %v", i, hcp.Engine.Now, now)
		}
		cp.Hosts = append(cp.Hosts, hcp)
	}
	cp.Router = RouterCheckpoint{
		Owner:        make(map[string]int, len(rt.owner)),
		ProbeLog:     make([][]ProbeCheckpoint, len(rt.probeLog)),
		Placed:       res.Placed,
		Departed:     res.Departed,
		PhaseChanges: res.PhaseChanges,
	}
	for vm, host := range rt.owner {
		cp.Router.Owner[vm] = host
	}
	for i, log := range rt.probeLog {
		for _, p := range log {
			cp.Router.ProbeLog[i] = append(cp.Router.ProbeLog[i], ProbeCheckpoint{
				Epoch: p.epoch, VCPUs: p.vcpus, Stat: p.stat,
			})
		}
	}
	if res.Placements != nil {
		cp.Router.Placements = append([]Placement(nil), res.Placements...)
	}
	if rt.el != nil {
		raw, err := rt.el.capture()
		if err != nil {
			return nil, err
		}
		cp.Elasticity = raw
	}
	digest, err := cp.ComputeDigest()
	if err != nil {
		return nil, err
	}
	cp.Digest = digest
	return cp, nil
}

// ComputeDigest returns the sha256 hex digest of the snapshot's
// canonical JSON encoding (with the digest field itself blanked).
// encoding/json is deterministic for this data — struct fields encode
// in declaration order and map keys sort — so equal states produce
// equal digests regardless of worker count or GOMAXPROCS.
func (cp *FleetCheckpoint) ComputeDigest() (string, error) {
	saved := cp.Digest
	cp.Digest = ""
	data, err := json.Marshal(cp)
	cp.Digest = saved
	if err != nil {
		return "", fmt.Errorf("cluster: encoding checkpoint: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Encode serializes the snapshot (computing the digest if unset).
func (cp *FleetCheckpoint) Encode() ([]byte, error) {
	if cp.Digest == "" {
		d, err := cp.ComputeDigest()
		if err != nil {
			return nil, err
		}
		cp.Digest = d
	}
	data, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding checkpoint: %w", err)
	}
	return data, nil
}

// DecodeCheckpoint parses and verifies a snapshot: version header
// first, then the digest over the canonical re-encoding, so a
// corrupted or hand-edited file fails loudly instead of diverging
// silently mid-run.
func DecodeCheckpoint(data []byte) (*FleetCheckpoint, error) {
	cp := &FleetCheckpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("cluster: parsing checkpoint: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("cluster: checkpoint version %q, want %q", cp.Version, CheckpointVersion)
	}
	want, err := cp.ComputeDigest()
	if err != nil {
		return nil, err
	}
	if cp.Digest != want {
		return nil, fmt.Errorf("cluster: checkpoint digest mismatch: recorded %s, computed %s", cp.Digest, want)
	}
	return cp, nil
}

// SaveCheckpoint writes a snapshot to path.
func SaveCheckpoint(path string, cp *FleetCheckpoint) error {
	data, err := cp.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("cluster: writing checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and verifies a snapshot from path.
func LoadCheckpoint(path string) (*FleetCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading checkpoint: %w", err)
	}
	return DecodeCheckpoint(data)
}

// validateAgainst cross-checks a snapshot against the restoring run's
// (already normalized) configuration and epoch plan.
func (cp *FleetCheckpoint) validateAgainst(cfg *FleetConfig, plan *epochPlan) error {
	id := cp.Config
	switch {
	case id.Hosts != cfg.Hosts:
		return fmt.Errorf("cluster: checkpoint has %d hosts, config %d", id.Hosts, cfg.Hosts)
	case id.PCPUsPerHost != cfg.PCPUsPerHost:
		return fmt.Errorf("cluster: checkpoint has %d pCPUs/host, config %d", id.PCPUsPerHost, cfg.PCPUsPerHost)
	case id.Seed != cfg.Seed:
		return fmt.Errorf("cluster: checkpoint seed %d, config %d", id.Seed, cfg.Seed)
	case id.Horizon != cfg.Horizon:
		return fmt.Errorf("cluster: checkpoint horizon %v, config %v", id.Horizon, cfg.Horizon)
	case id.Epoch != cfg.Epoch:
		return fmt.Errorf("cluster: checkpoint epoch %v, config %v", id.Epoch, cfg.Epoch)
	case id.Drain != cfg.Drain:
		return fmt.Errorf("cluster: checkpoint drain %v, config %v", id.Drain, cfg.Drain)
	case id.SLO != cfg.SLO:
		return fmt.Errorf("cluster: checkpoint SLO %v, config %v", id.SLO, cfg.SLO)
	case id.LagEpochs != lagEpochs:
		return fmt.Errorf("cluster: checkpoint lag %d, executor %d", id.LagEpochs, lagEpochs)
	case id.WarmEpochs != cfg.WarmEpochs:
		return fmt.Errorf("cluster: checkpoint warm epochs %d, config %d", id.WarmEpochs, cfg.WarmEpochs)
	}
	if len(cp.Hosts) != cfg.Hosts {
		return fmt.Errorf("cluster: checkpoint carries %d host states for %d hosts", len(cp.Hosts), cfg.Hosts)
	}
	if cp.Boundary < 1 || cp.Boundary >= plan.epochs() {
		return fmt.Errorf("cluster: checkpoint boundary %d outside (0, %d)", cp.Boundary, plan.epochs())
	}
	if cp.Now != plan.ends[cp.Boundary-1] {
		return fmt.Errorf("cluster: checkpoint time %v is not boundary %d (%v)", cp.Now, cp.Boundary, plan.ends[cp.Boundary-1])
	}
	if cp.Armed {
		return fmt.Errorf("cluster: checkpoint is armed; only a disarmed warm capture restores")
	}
	if cp.Boundary != cfg.WarmEpochs {
		return fmt.Errorf("cluster: checkpoint at boundary %d, warm boundary is %d", cp.Boundary, cfg.WarmEpochs)
	}
	for i, h := range cp.Hosts {
		if h.Engine.Now != cp.Now {
			return fmt.Errorf("cluster: host %d checkpointed at %v, snapshot time is %v", i, h.Engine.Now, cp.Now)
		}
	}
	if len(cp.Router.ProbeLog) != cfg.Hosts {
		return fmt.Errorf("cluster: checkpoint probe log covers %d hosts, config %d", len(cp.Router.ProbeLog), cfg.Hosts)
	}
	// The executor indexes hosts by owner and places with the ring and
	// the probe log, so all three must be exactly what a capture at this
	// boundary carries: the digest is unkeyed and cannot vouch for a
	// re-sealed edit.
	for vm, host := range cp.Router.Owner {
		if host < 0 || host >= cfg.Hosts {
			return fmt.Errorf("cluster: checkpoint places VM %s on host %d of %d", vm, host, cfg.Hosts)
		}
	}
	for i, log := range cp.Router.ProbeLog {
		for _, p := range log {
			if err := checkStat(p.Stat); err != nil {
				return fmt.Errorf("cluster: checkpoint probe log of host %d: %w", i, err)
			}
		}
	}
	want := plan.retained(cp.Boundary)
	if len(cp.Ring) != len(want) {
		return fmt.Errorf("cluster: checkpoint ring holds %d boundaries, boundary %d needs %v", len(cp.Ring), cp.Boundary, want)
	}
	for j, rb := range cp.Ring {
		if rb.Boundary != want[j] {
			return fmt.Errorf("cluster: checkpoint ring boundary %d at slot %d, boundary %d needs %v", rb.Boundary, j, cp.Boundary, want)
		}
		if len(rb.Stats) != cfg.Hosts || len(rb.Committed) != cfg.Hosts {
			return fmt.Errorf("cluster: ring boundary %d covers %d/%d hosts, config %d",
				rb.Boundary, len(rb.Stats), len(rb.Committed), cfg.Hosts)
		}
		for _, stats := range rb.Stats {
			for _, st := range stats {
				if err := checkStat(st); err != nil {
					return fmt.Errorf("cluster: ring boundary %d: %w", rb.Boundary, err)
				}
			}
		}
	}
	return nil
}

// checkStat rejects a placement stat Algorithm 1 cannot weigh.
func checkStat(st core.VMStat) error {
	if !(st.Weight > 0) || math.IsInf(st.Weight, 0) {
		return fmt.Errorf("VM %s has weight %v, want positive and finite", st.ID, st.Weight)
	}
	return nil
}

// restoreRouter overwrites a fresh router (and the result's churn
// counters) from a capture. probes/committedExtra stay empty: the next
// arrival epoch's advanceBase recomputes both from the probe log, as
// it does after any base advance.
func restoreRouter(rt *fleetRouter, res *FleetResult, rc RouterCheckpoint) {
	for vm, host := range rc.Owner {
		rt.owner[vm] = host
	}
	for i, log := range rc.ProbeLog {
		for _, p := range log {
			rt.probeLog[i] = append(rt.probeLog[i], placedProbe{epoch: p.Epoch, vcpus: p.VCPUs, stat: p.Stat})
		}
	}
	res.Placed = rc.Placed
	res.Departed = rc.Departed
	res.PhaseChanges = rc.PhaseChanges
	if rt.record && rc.Placements != nil {
		res.Placements = append([]Placement(nil), rc.Placements...)
	}
}

// CaptureWarmPrefix runs the policy-neutral warm prefix once —
// cfg.WarmEpochs epochs, mechanisms disarmed, hosts quiescing over the
// last warm epoch — and captures the fleet at the warm boundary. The
// returned snapshot is what RunFleetFork forks every policy variant
// from; cfg.Policy is irrelevant to the prefix (mechanisms are off and
// no policy pass runs) and is not recorded.
func CaptureWarmPrefix(cfg FleetConfig, events []Event) (*FleetCheckpoint, error) {
	plan, err := prepareFleet(&cfg, events)
	if err != nil {
		return nil, err
	}
	if cfg.WarmEpochs <= 0 {
		return nil, fmt.Errorf("cluster: warm-fork needs WarmEpochs > 0")
	}
	if cfg.Tracers != nil {
		return nil, fmt.Errorf("cluster: tracers are not checkpointable")
	}
	cfg.Telemetry = nil // nothing is collected inside the warm prefix
	if cfg.Policy == "" {
		cfg.Policy = "static"
	}
	pols, hosts, err := buildFleetHosts(&cfg)
	if err != nil {
		return nil, err
	}
	res := FleetResult{Policy: cfg.Policy, Hosts: cfg.Hosts}
	rt := newFleetRouter(&cfg, plan, &res)
	if rt.el != nil {
		rt.el.attachHosts(hosts)
	}
	return runBoundedLag(&cfg, plan, hosts, pols, rt, &res, 0, cfg.WarmEpochs, nil)
}

// RunFleetFork restores a fleet from a warm-prefix snapshot and runs it
// to completion under cfg — the fork half of warm-fork: mechanisms arm
// per cfg.Policy at the boundary and the measured window begins. The
// suffix runs at cfg.Workers and the result is byte-identical to the
// straight-through run with the same warm prefix.
func RunFleetFork(cfg FleetConfig, events []Event, cp *FleetCheckpoint) (FleetResult, error) {
	plan, err := prepareFleet(&cfg, events)
	if err != nil {
		return FleetResult{}, err
	}
	if cfg.Tracers != nil {
		return FleetResult{}, fmt.Errorf("cluster: tracers are not checkpointable")
	}
	if err := cp.validateAgainst(&cfg, plan); err != nil {
		return FleetResult{}, err
	}

	res := FleetResult{Policy: cfg.Policy, Hosts: cfg.Hosts}
	rt := newFleetRouter(&cfg, plan, &res)
	restoreRouter(rt, &res, cp.Router)

	pols := make([]ScalingPolicy, cfg.Hosts)
	hosts := make([]*Host, cfg.Hosts)
	for i := range hosts {
		pol, err := NewPolicy(cfg.Policy)
		if err != nil {
			return FleetResult{}, err
		}
		pols[i] = pol
		h, err := RestoreHost(i, HostConfig{
			PCPUs:  cfg.PCPUsPerHost,
			Seed:   runner.DeriveSeed(cfg.Seed, i),
			Policy: pol,
			SLO:    cfg.SLO,
		}, cp.Hosts[i])
		if err != nil {
			return FleetResult{}, err
		}
		hosts[i] = h
	}
	if rt.el != nil {
		if cp.Elasticity == nil {
			return FleetResult{}, fmt.Errorf("cluster: the elasticity layer needs a checkpoint with elasticity state (captured by an elasticity-enabled run)")
		}
		rt.el.attachHosts(hosts)
		if err := rt.el.restore(cp.Elasticity); err != nil {
			return FleetResult{}, err
		}
	}
	for _, h := range hosts {
		h.Arm()
	}

	if _, err := runBoundedLag(&cfg, plan, hosts, pols, rt, &res, cp.Boundary, 0, cp.Ring); err != nil {
		return res, err
	}
	if err := aggregate(&cfg, hosts, &res); err != nil {
		return res, err
	}
	return res, nil
}
