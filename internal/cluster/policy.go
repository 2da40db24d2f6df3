package cluster

import (
	"fmt"
	"strings"

	"vscale/internal/sim"
)

// VMObservation is one VM's per-epoch snapshot, the input to
// ScalingPolicy.Decide. It combines the CPU-demand signals the paper's
// policies act on (consumed vCPU-time) with the application signals
// the feedback-control policies close the loop on (reply-latency
// quantiles, SLO attainment) — all sampled by the control plane while
// the host engines are parked at the epoch boundary.
//
// The latency fields come from the load generator's epoch window (the
// delta since the previous epoch), not from cumulative counters, so a
// controller sees the system's current behaviour rather than its
// lifetime average.
type VMObservation struct {
	// VM names the VM (unique fleet-wide); Host is its host index.
	VM   string
	Host int
	// Epoch is the control-plane period the window spans.
	Epoch sim.Time

	// MaxVCPUs is the VM's provisioned vCPU ceiling; ActiveVCPUs is how
	// many are currently unfrozen; HostPCPUs is the host's pool size.
	MaxVCPUs    int
	ActiveVCPUs int
	HostPCPUs   int

	// ConsumedCPU is the vCPU-time the VM consumed this epoch (the
	// demand signal: ConsumedCPU/Epoch is the vCPU-count it actually
	// used).
	ConsumedCPU sim.Time
	// OfferedRPS is the generator's current offered request rate.
	OfferedRPS float64

	// Offered/Replies/Errors count this epoch's requests; InFlight is
	// the point-in-time backlog (offered but not yet terminal) at the
	// epoch boundary — a leading overload indicator.
	Offered, Replies, Errors uint64
	InFlight                 uint64
	// P50/P95/P99 are this epoch's reply-latency quantiles in
	// milliseconds (zero when nothing was delivered this epoch).
	P50, P95, P99 float64
	// Attainment is this epoch's SLO attainment over offered requests.
	Attainment float64
	// SLO is the per-request latency objective.
	SLO sim.Time
}

// Mechanism describes the guest-side plumbing a policy relies on; the
// host configures each VM from it at boot.
type Mechanism struct {
	// Channel enables the hypervisor's vScale extendability channel
	// (periodic Algorithm-1 recalculation) for the VM's domain.
	Channel bool
	// Daemon runs the in-guest scaling daemon (it polls the channel
	// every 10 ms and resizes the VM itself; Decide is then advisory
	// and built-in daemon policies return 0 from it).
	Daemon bool
	// Hotplug routes the daemon's resizes through the dom0 toolstack
	// (libxl stats sweep + XenStore write + guest CPU hotplug) instead
	// of the vScale balancer.
	Hotplug bool
}

// ScalingPolicy decides how each VM of a fleet resizes. RunFleet
// creates one instance per host from the policies table by name, so a
// policy may keep per-VM controller state across epochs.
//
// Mechanism is read once, when the host is built. Decide is called
// only by the executor worker that holds the instance's host, never
// from host engine callbacks, for every non-retired VM of that host at
// every boundary past the warm boundary, in VM-admission order.
// Instances of different hosts run concurrently, so they must share no
// mutable state, and a policy must derive its decisions only from the
// observations it is handed (no clocks, no global RNG) to preserve the
// fleet's byte-identical determinism across worker counts.
type ScalingPolicy interface {
	// Mechanism reports the guest-side plumbing the policy needs.
	Mechanism() Mechanism
	// Decide returns the VM's target active-vCPU count for the next
	// epoch, clamped by the caller to [1, MaxVCPUs]. Returning 0 (or
	// any non-positive value) means "no decision": the VM keeps its
	// current size and the policy's mechanism (if any) stays in charge.
	Decide(obs VMObservation) int
}

// policies lists every scaling policy by name, in the canonical report
// order. Adding a policy is adding a row.
var policies = []struct {
	name string
	new  func() ScalingPolicy
}{
	{"static", func() ScalingPolicy { return staticPolicy{} }},
	{"hotplug", func() ScalingPolicy { return hotplugPolicy{} }},
	{"vscale", func() ScalingPolicy { return vscalePolicy{} }},
	{"pid", newPIDPolicy},
	{"predictive", newPredictivePolicy},
}

// PolicyNames lists the policy names in report order: static, hotplug,
// vscale, pid, predictive.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.name
	}
	return names
}

// NewPolicy instantiates a fresh policy by name. An unknown name yields
// an error listing every known name.
func NewPolicy(name string) (ScalingPolicy, error) {
	for _, p := range policies {
		if p.name == name {
			return p.new(), nil
		}
	}
	return nil, fmt.Errorf("cluster: unknown policy %q (known: %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// ParsePolicies parses a comma-separated policy selection as the CLIs'
// -policies flag accepts it: "all" (or the empty string) selects every
// policy in report order; otherwise each name must be known, and
// duplicates are rejected.
func ParsePolicies(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return PolicyNames(), nil
	}
	var out []string
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		if _, err := NewPolicy(name); err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: policy %q selected twice", name)
		}
		seen[name] = true
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty policy selection")
	}
	return out, nil
}

// ---------------------------------------------------------------------
// The paper's three policies
// ---------------------------------------------------------------------

// staticPolicy never resizes: every VM keeps all its vCPUs online
// (unmodified Xen/Linux).
type staticPolicy struct{}

func (staticPolicy) Mechanism() Mechanism     { return Mechanism{} }
func (staticPolicy) Decide(VMObservation) int { return 0 }

// hotplugPolicy resizes through the dom0 toolstack: the in-guest
// daemon reads the same utilisation signal as vScale, but each
// reconfiguration pays a dom0 monitoring sweep over the host's VMs, a
// XenStore write and the guest CPU-hotplug latency (VCPU-Bal).
type hotplugPolicy struct{}

func (hotplugPolicy) Mechanism() Mechanism {
	return Mechanism{Channel: true, Daemon: true, Hotplug: true}
}
func (hotplugPolicy) Decide(VMObservation) int { return 0 }

// vscalePolicy resizes through the vScale channel and balancer (the
// paper's system): the in-guest daemon polls CPU extendability every
// 10 ms and freezes/unfreezes vCPUs at µs cost.
type vscalePolicy struct{}

func (vscalePolicy) Mechanism() Mechanism     { return Mechanism{Channel: true, Daemon: true} }
func (vscalePolicy) Decide(VMObservation) int { return 0 }
