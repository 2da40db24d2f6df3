package cluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"vscale/internal/sim"
)

// elasticTraceConfig is the service-annotated churn mix the elasticity
// tests share: every VM belongs to one of two services and carries a
// dirty-page hint, and the high request rates overload the small hosts
// enough that the replica-set controller has something to fix.
func elasticTraceConfig(horizon sim.Time) TraceConfig {
	tc := DefaultTraceConfig(horizon)
	tc.Services = []string{"web", "api"}
	tc.DirtyBpsChoices = []float64{50e6, 200e6, 800e6}
	tc.RateChoices = []float64{2000, 6000, 10000}
	return tc
}

// elasticFleet is smallFleet plus an elasticity mode.
func elasticFleet(t *testing.T, mode string, workers int) FleetConfig {
	t.Helper()
	cfg := smallFleet("vscale", workers)
	cfg.Horizon = 4 * sim.Second
	mig, rs, err := ElasticityFor(mode)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Migration = mig
	cfg.ReplicaSet = rs
	return cfg
}

// TestElasticitySmoke runs the hybrid mode end to end and checks both
// mechanisms actually fired on the reference trace.
func TestElasticitySmoke(t *testing.T) {
	cfg := elasticFleet(t, "hybrid", 0)
	events := GenTrace(elasticTraceConfig(cfg.Horizon), cfg.Seed)
	res, err := RunFleet(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("migrations=%d aborted=%d downtime=%v bytes=%d created=%d retired=%d failures=%d",
		res.Migrations, res.MigrationsAborted, res.MigrationDowntime, res.MigrationBytes,
		res.ReplicasCreated, res.ReplicasRetired, res.ReplicaFailures)
	if res.Migrations == 0 {
		t.Error("hybrid run committed no migrations on the reference trace")
	}
	if res.ReplicasCreated == 0 {
		t.Error("hybrid run created no replicas on the reference trace")
	}
	if res.Migrations > 0 && res.MigrationDowntime <= 0 {
		t.Error("committed migrations but zero modeled downtime")
	}
}

// TestElasticityExecutorMatchesSerial extends the executor
// differential to the elasticity layer: with migrations and replica
// scaling on, the executor must still reproduce the serial reference
// byte for byte at every worker count.
func TestElasticityExecutorMatchesSerial(t *testing.T) {
	for _, mode := range []string{"migrate", "replicas", "hybrid"} {
		cfg := elasticFleet(t, mode, 1)
		events := GenTrace(elasticTraceConfig(cfg.Horizon), cfg.Seed)
		assertMatchesSerial(t, mode, cfg, events, 1, 4)
	}
}

// TestElasticityWarmForkIdentical checks the fork half of warm-fork
// with the elasticity layer on: a fleet forked from the shared warm
// checkpoint must match the straight-through run exactly.
func TestElasticityWarmForkIdentical(t *testing.T) {
	cfg := elasticFleet(t, "hybrid", 1)
	cfg.WarmEpochs = 2
	events := GenTrace(elasticTraceConfig(cfg.Horizon), cfg.Seed)

	straight, err := RunFleet(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if straight.Migrations == 0 {
		t.Fatal("warm run committed no migrations; the fork check would be vacuous")
	}

	cp, err := CaptureWarmPrefix(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Elasticity == nil {
		t.Fatal("warm capture of an elasticity-enabled run carries no elasticity state")
	}
	got, err := RunFleetFork(cfg, events, cp)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "warm fork", straight, got)
}

// TestElasticityForkValidation pins the restore-time elasticity check
// on warm captures: an elasticity-free capture cannot fork with the
// layer on, and a hybrid capture forks as every mode (with the layer
// off its state is simply unused).
func TestElasticityForkValidation(t *testing.T) {
	base := smallFleet("vscale", 1)
	base.Horizon = 4 * sim.Second
	base.WarmEpochs = 2
	events := GenTrace(elasticTraceConfig(base.Horizon), base.Seed)

	plain, err := CaptureWarmPrefix(base, events)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Elasticity != nil {
		t.Fatal("elasticity-free capture unexpectedly carries elasticity state")
	}
	hcfg := elasticFleet(t, "hybrid", 1)
	hcfg.WarmEpochs = 2
	if _, err := RunFleetFork(hcfg, events, plain); err == nil || !strings.Contains(err.Error(), "elasticity state") {
		t.Fatalf("fork with elasticity on from an elasticity-free capture: err = %v, want missing elasticity state", err)
	}

	hybrid, err := CaptureWarmPrefix(hcfg, events)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"none", "migrate", "replicas", "hybrid"} {
		fcfg := elasticFleet(t, mode, 1)
		fcfg.WarmEpochs = 2
		if _, err := RunFleetFork(fcfg, events, hybrid); err != nil {
			t.Fatalf("hybrid warm capture forked as %s: %v", mode, err)
		}
	}
}

// TestElasticityFor pins the CLI mode surface.
func TestElasticityFor(t *testing.T) {
	for _, mode := range []string{"", "none", "vertical"} {
		mig, rs, err := ElasticityFor(mode)
		if err != nil || mig != nil || rs != nil {
			t.Fatalf("ElasticityFor(%q) = %v, %v, %v; want nil, nil, nil", mode, mig, rs, err)
		}
	}
	if mig, rs, err := ElasticityFor("migrate"); err != nil || mig == nil || rs != nil {
		t.Fatalf("ElasticityFor(migrate) = %v, %v, %v", mig, rs, err)
	}
	if mig, rs, err := ElasticityFor("replicas"); err != nil || mig != nil || rs == nil {
		t.Fatalf("ElasticityFor(replicas) = %v, %v, %v", mig, rs, err)
	}
	if mig, rs, err := ElasticityFor("hybrid"); err != nil || mig == nil || rs == nil {
		t.Fatalf("ElasticityFor(hybrid) = %v, %v, %v", mig, rs, err)
	}
	if _, _, err := ElasticityFor("sideways"); err == nil {
		t.Fatal("ElasticityFor(sideways): want error")
	}
}

// hintTraces and badHintTraces are the table for the vscale-churn/v1
// service=/dirty= arrive fields: accepted in either order, rejected on
// duplication, emptiness, non-positive rates or unknown keys.
// FuzzParseTrace seeds from them.
var hintTraces = []struct {
	name    string
	in      string
	service string
	dirty   float64
}{
	{"neither", traceHdr + "100 arrive vm0 vcpus=2 rate=100\n", "", 0},
	{"service only", traceHdr + "100 arrive vm0 vcpus=2 rate=100 service=web\n", "web", 0},
	{"dirty only", traceHdr + "100 arrive vm0 vcpus=2 rate=100 dirty=2e8\n", "", 2e8},
	{"service then dirty", traceHdr + "100 arrive vm0 vcpus=2 rate=100 service=web dirty=5e7\n", "web", 5e7},
	{"dirty then service", traceHdr + "100 arrive vm0 vcpus=2 rate=100 dirty=5e7 service=api\n", "api", 5e7},
}

var badHintTraces = []struct {
	name    string
	in      string
	wantErr string
}{
	{"duplicate service", traceHdr + "100 arrive vm0 vcpus=2 rate=100 service=a service=b\n", "duplicate service"},
	{"duplicate dirty", traceHdr + "100 arrive vm0 vcpus=2 rate=100 dirty=1e8 dirty=2e8\n", "duplicate dirty"},
	{"empty service", traceHdr + "100 arrive vm0 vcpus=2 rate=100 service=\n", "empty service"},
	{"zero dirty", traceHdr + "100 arrive vm0 vcpus=2 rate=100 dirty=0\n", "must be positive"},
	{"negative dirty", traceHdr + "100 arrive vm0 vcpus=2 rate=100 dirty=-5\n", "must be positive"},
	{"malformed dirty", traceHdr + "100 arrive vm0 vcpus=2 rate=100 dirty=fast\n", "bad dirty rate"},
	{"unknown field", traceHdr + "100 arrive vm0 vcpus=2 rate=100 color=red\n", "unknown arrive field"},
	{"hint on phase", traceHdr + "100 arrive vm0 vcpus=2 rate=100\n200 phase vm0 rate=50 service=web\n", "phase needs"},
}

func TestTraceElasticityHints(t *testing.T) {
	for _, tc := range hintTraces {
		t.Run(tc.name, func(t *testing.T) {
			events, err := ParseTrace(strings.NewReader(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != 1 || events[0].Service != tc.service || events[0].DirtyBps != tc.dirty {
				t.Fatalf("parsed %+v, want service=%q dirty=%g", events, tc.service, tc.dirty)
			}
		})
	}
	for _, tc := range badHintTraces {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTrace(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseTrace(%q) = %v, want error containing %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

// TestTraceElasticityRoundTrip: a generated trace with services and
// dirty hints survives format/parse unchanged, and one without them
// renders byte-identically to the historical format (no stray fields).
func TestTraceElasticityRoundTrip(t *testing.T) {
	tc := elasticTraceConfig(6 * sim.Second)
	events := GenTrace(tc, 7)
	withHints := 0
	for _, ev := range events {
		if ev.Kind == EventArrive && ev.Service != "" && ev.DirtyBps > 0 {
			withHints++
		}
	}
	if withHints == 0 {
		t.Fatal("generated trace carries no elasticity hints")
	}
	var buf bytes.Buffer
	if err := FormatTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatal("format/parse round trip changed the hinted trace")
	}

	plain := GenTrace(DefaultTraceConfig(6*sim.Second), 7)
	var pbuf bytes.Buffer
	if err := FormatTrace(&pbuf, plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pbuf.String(), "service=") || strings.Contains(pbuf.String(), "dirty=") {
		t.Fatal("hint-free trace rendered elasticity fields")
	}
}
