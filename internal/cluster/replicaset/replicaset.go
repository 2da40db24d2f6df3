// Package replicaset implements a KubeVirt-VirtualMachineReplicaSet-
// style horizontal autoscaling controller for the cluster fleet: each
// service groups the VMs serving one workload (the churn trace's
// anchors plus any replicas the controller added), and the controller
// scales the replica count against windowed SLO attainment. Replicas
// pass a readiness gate before they count, scaling respects a
// per-service cooldown, and placement failures surface as
// ReplicaFailure conditions rather than errors — mirroring the
// ReplicaFailure/FailureCreate status conditions of the KubeVirt API.
//
// The controller is deliberately free of simulation state: the cluster
// control plane feeds it boundary indices and windowed observations and
// applies its decisions, so the package stays unit-testable and its
// state round-trips through a checkpoint as plain JSON.
package replicaset

import (
	"encoding/json"
	"fmt"
)

// Condition types and reasons, after the KubeVirt replica-set API.
const (
	// ConditionReplicaFailure marks a service whose last scale-out
	// could not be placed.
	ConditionReplicaFailure = "ReplicaFailure"
	// ReasonFailureCreate is the ReplicaFailure reason for a failed
	// replica creation (no host could admit the replica).
	ReasonFailureCreate = "FailureCreate"
)

// The controller scales a service between its anchors and maxReplicas
// members on a 90%/99.5% attainment band, with a one-epoch readiness
// gate and a two-epoch cooldown.
const (
	// readyAfter is the readiness gate: a replica born at boundary b
	// counts (receives load, votes in the windowed attainment) only from
	// boundary b+readyAfter on. Anchors are ready immediately.
	readyAfter = 1
	// maxReplicas caps a service's live member count, anchors included.
	maxReplicas = 3
	// scaleUpBelow: scale out when windowed attainment drops below this.
	scaleUpBelow float64 = 0.90
	// scaleDownAbove: scale in when windowed attainment exceeds this
	// (and a removable replica exists).
	scaleDownAbove float64 = 0.995
	// cooldown is the minimum number of boundaries between scaling
	// actions (or placement failures) of one service.
	cooldown = 2
)

// Member is one VM of a service: a trace anchor or a controller-made
// replica.
type Member struct {
	VM   string `json:"vm"`
	Host int    `json:"host"`
	// Born is the boundary the member was admitted at; readiness counts
	// from Born + readyAfter for replicas.
	Born int `json:"born"`
	// Anchor marks trace-owned members: the controller never retires
	// them, and a service whose anchors are all gone is wound down.
	Anchor  bool `json:"anchor"`
	Ready   bool `json:"ready"`
	Retired bool `json:"retired"`
}

// Condition is one status condition of a service, newest last.
type Condition struct {
	Type     string `json:"type"`
	Reason   string `json:"reason"`
	Message  string `json:"message"`
	Boundary int    `json:"boundary"`
}

// maxConditions bounds a service's retained condition history.
const maxConditions = 4

// Service is one scaling group: members in admission order plus the
// controller's per-service pacing state.
type Service struct {
	Name    string   `json:"name"`
	Members []Member `json:"members"`
	// CooldownUntil: no scaling action before this boundary.
	CooldownUntil int         `json:"cooldown_until"`
	Conditions    []Condition `json:"conditions,omitempty"`
}

// Controller holds every service in registration order (the iteration
// order of each reconcile pass, so decisions are deterministic).
type Controller struct {
	services []*Service
	byName   map[string]*Service
	bySvcVM  map[string]*Member // member VM name -> its entry
	svcOf    map[string]string  // member VM name -> service name
}

// New builds an empty controller.
func New() *Controller {
	return &Controller{
		byName:  map[string]*Service{},
		bySvcVM: map[string]*Member{},
		svcOf:   map[string]string{},
	}
}

// Services lists every service in registration order.
func (c *Controller) Services() []*Service { return c.services }

// Lookup returns the service registered under name, or nil.
func (c *Controller) Lookup(name string) *Service { return c.byName[name] }

// ServiceOf returns the service a member VM belongs to ("" if unknown).
func (c *Controller) ServiceOf(vm string) string { return c.svcOf[vm] }

// AddMember registers a VM under service (creating the service on
// first use). Anchors are ready immediately; replicas wait for the
// readiness gate. Adding an already-known VM is a no-op, which lets a
// checkpoint restore replay the trace prefix over restored state.
func (c *Controller) AddMember(service, vm string, host, born int, anchor bool) {
	if c.bySvcVM[vm] != nil {
		return
	}
	s := c.byName[service]
	if s == nil {
		s = &Service{Name: service}
		c.byName[service] = s
		c.services = append(c.services, s)
	}
	s.Members = append(s.Members, Member{
		VM: vm, Host: host, Born: born, Anchor: anchor, Ready: anchor,
	})
	c.svcOf[vm] = service
	c.reindex(s)
}

// reindex repairs bySvcVM pointers for s after a slice append may have
// moved its backing array.
func (c *Controller) reindex(s *Service) {
	for i := range s.Members {
		c.bySvcVM[s.Members[i].VM] = &s.Members[i]
	}
}

// RetireMember marks a member gone (anchor departed or replica
// removed). Unknown or already-retired VMs are no-ops.
func (c *Controller) RetireMember(vm string) {
	if m := c.bySvcVM[vm]; m != nil {
		m.Retired = true
	}
}

// SetHost records a member's new home after a live migration.
func (c *Controller) SetHost(vm string, host int) {
	if m := c.bySvcVM[vm]; m != nil {
		m.Host = host
	}
}

// Member returns the entry for vm (nil if unknown).
func (c *Controller) Member(vm string) *Member { return c.bySvcVM[vm] }

// Tick advances readiness at boundary b: replicas past their gate
// become ready.
func (c *Controller) Tick(b int) {
	for _, s := range c.services {
		for i := range s.Members {
			m := &s.Members[i]
			if !m.Ready && !m.Retired && b >= m.Born+readyAfter {
				m.Ready = true
			}
		}
	}
}

// Live counts a service's non-retired members; ready counts the subset
// past the readiness gate; anchors the live trace-owned ones.
func (s *Service) Live() (live, ready, anchors int) {
	for i := range s.Members {
		m := &s.Members[i]
		if m.Retired {
			continue
		}
		live++
		if m.Ready {
			ready++
		}
		if m.Anchor {
			anchors++
		}
	}
	return
}

// Decide returns the scaling verdict for service at boundary b given
// its windowed attainment over offered requests: +1 to add a replica,
// -1 to remove one, 0 to hold. The caller applies the action and
// reports back via RecordScale (success) or Fail (placement failure).
func (c *Controller) Decide(service string, b int, attainment float64, offered uint64) int {
	s := c.byName[service]
	if s == nil || b < s.CooldownUntil {
		return 0
	}
	live, ready, anchors := s.Live()
	if live == 0 {
		return 0
	}
	switch {
	case offered > 0 && attainment < scaleUpBelow && live < maxReplicas && ready == live:
		// Scale out — but only once the previous replica is ready, so a
		// slow warm-up cannot stampede the fleet.
		return +1
	case attainment > scaleDownAbove && live > anchors && offered > 0:
		return -1
	}
	return 0
}

// RecordScale starts service's cooldown after an applied action.
func (c *Controller) RecordScale(service string, b int) {
	if s := c.byName[service]; s != nil {
		s.CooldownUntil = b + cooldown
	}
}

// Fail records a ReplicaFailure condition (reason/message) against
// service and starts the cooldown, so a persistently unplaceable
// replica retries at the cooldown cadence instead of every boundary.
func (c *Controller) Fail(service string, b int, reason, message string) {
	s := c.byName[service]
	if s == nil {
		return
	}
	s.Conditions = append(s.Conditions, Condition{
		Type: ConditionReplicaFailure, Reason: reason, Message: message, Boundary: b,
	})
	if len(s.Conditions) > maxConditions {
		s.Conditions = s.Conditions[len(s.Conditions)-maxConditions:]
	}
	s.CooldownUntil = b + cooldown
}

// state is the controller's checkpoint document.
type state struct {
	Services []*Service `json:"services"`
}

// CheckpointState serialises the controller deterministically: services
// in registration order, members in admission order.
func (c *Controller) CheckpointState() ([]byte, error) {
	return json.Marshal(state{Services: c.services})
}

// RestoreState replaces the controller's services with a captured
// snapshot and rebuilds the indexes.
func (c *Controller) RestoreState(data []byte) error {
	var st state
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("replicaset: restore: %w", err)
	}
	c.services = st.Services
	c.byName = map[string]*Service{}
	c.bySvcVM = map[string]*Member{}
	c.svcOf = map[string]string{}
	for _, s := range c.services {
		if c.byName[s.Name] != nil {
			return fmt.Errorf("replicaset: restore: duplicate service %q", s.Name)
		}
		c.byName[s.Name] = s
		for i := range s.Members {
			c.svcOf[s.Members[i].VM] = s.Name
		}
		c.reindex(s)
	}
	return nil
}
