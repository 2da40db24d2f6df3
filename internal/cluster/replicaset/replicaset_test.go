package replicaset

import (
	"bytes"
	"fmt"
	"testing"
)

func TestScaleUpGatedOnReadiness(t *testing.T) {
	c := New()
	c.AddMember("web", "vm0", 0, 0, true)
	// Attainment below the band: scale out.
	if d := c.Decide("web", 3, 0.5, 1000); d != +1 {
		t.Fatalf("want +1 at low attainment, got %d", d)
	}
	c.AddMember("web", "web/r0", 1, 3, false)
	c.RecordScale("web", 3)
	// Cooldown active.
	if d := c.Decide("web", 4, 0.5, 1000); d != 0 {
		t.Fatalf("cooldown must hold, got %d", d)
	}
	// Cooldown over but the replica is not ready yet at b=5? readyAfter=1
	// means ready from b=4; Tick promotes it.
	c.Tick(5)
	if m := c.Member("web/r0"); m == nil || !m.Ready {
		t.Fatalf("replica must be ready after the gate")
	}
	if d := c.Decide("web", 5, 0.5, 1000); d != +1 {
		t.Fatalf("want another +1 once ready and off cooldown, got %d", d)
	}
}

func TestScaleUpStopsAtMaxReplicas(t *testing.T) {
	c := New()
	c.AddMember("web", "vm0", 0, 0, true)
	for r := 0; r < maxReplicas-1; r++ {
		c.AddMember("web", fmt.Sprintf("web/r%d", r), 1, 0, false)
	}
	c.Tick(1)
	if d := c.Decide("web", 2, 0.5, 1000); d != 0 {
		t.Fatalf("at maxReplicas: want hold, got %d", d)
	}
	// One member below the cap, the same verdict scales out.
	c.RetireMember("web/r0")
	if d := c.Decide("web", 2, 0.5, 1000); d != +1 {
		t.Fatalf("below maxReplicas: want +1, got %d", d)
	}
}

func TestScaleDownNeverRetiresAnchors(t *testing.T) {
	c := New()
	c.AddMember("web", "vm0", 0, 0, true)
	// Only the anchor lives: perfect attainment must not scale below it.
	if d := c.Decide("web", 2, 1.0, 1000); d != 0 {
		t.Fatalf("anchor-only service: want hold, got %d", d)
	}
	c.AddMember("web", "web/r0", 1, 0, false)
	c.Tick(1)
	if d := c.Decide("web", 2, 1.0, 1000); d != -1 {
		t.Fatalf("replica above the band: want -1, got %d", d)
	}
}

func TestFailRecordsConditionAndCoolsDown(t *testing.T) {
	c := New()
	c.AddMember("api", "vm1", 0, 0, true)
	c.Fail("api", 5, ReasonFailureCreate, "no host can admit 4 vCPUs")
	s := c.Lookup("api")
	if len(s.Conditions) != 1 {
		t.Fatalf("want 1 condition, got %d", len(s.Conditions))
	}
	cond := s.Conditions[0]
	if cond.Type != ConditionReplicaFailure || cond.Reason != ReasonFailureCreate {
		t.Fatalf("condition %+v", cond)
	}
	if d := c.Decide("api", 6, 0.1, 1000); d != 0 {
		t.Fatalf("failure must start the cooldown, got %d", d)
	}
	// Condition history is bounded.
	for b := 10; b < 20; b++ {
		c.Fail("api", b, ReasonFailureCreate, "still full")
	}
	if len(s.Conditions) != maxConditions {
		t.Fatalf("want %d retained conditions, got %d", maxConditions, len(s.Conditions))
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := New()
	c.AddMember("web", "vm0", 0, 0, true)
	c.AddMember("web", "web/r0", 1, 2, false)
	c.AddMember("db", "vm1", 1, 0, true)
	c.Tick(3)
	c.RecordScale("web", 3)
	c.Fail("db", 4, ReasonFailureCreate, "fleet full")
	c.RetireMember("web/r0")

	data, err := c.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	data2, err := r.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("restore is not byte-stable:\n%s\n%s", data, data2)
	}
	if r.ServiceOf("web/r0") != "web" || r.ServiceOf("vm1") != "db" {
		t.Fatalf("restored membership index broken")
	}
	if m := r.Member("web/r0"); m == nil || !m.Retired {
		t.Fatalf("retirement lost in the round trip")
	}
	// Replaying the trace prefix over restored state must be a no-op.
	r.AddMember("web", "vm0", 0, 0, true)
	live, _, anchors := r.Lookup("web").Live()
	if live != 1 || anchors != 1 {
		t.Fatalf("replayed AddMember duplicated the anchor: live=%d anchors=%d", live, anchors)
	}
}
