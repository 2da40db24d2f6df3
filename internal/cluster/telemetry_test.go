package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"vscale/internal/sim"
	"vscale/internal/telemetry"
)

// runTelemetryFleet drives a small fleet with a live collector writing
// JSONL into a buffer, and returns the result plus the stream.
func runTelemetryFleet(t *testing.T, workers int, seed uint64) (FleetResult, string) {
	t.Helper()
	var buf bytes.Buffer
	sink, err := telemetry.NewSink("", &buf)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector(sink, false, "policy", "vscale", "hosts", "2")
	cfg := FleetConfig{
		Hosts:        2,
		PCPUsPerHost: 4,
		Policy:       "vscale",
		Seed:         seed,
		Horizon:      3 * sim.Second,
		SLO:          30 * sim.Millisecond,
		Workers:      workers,
		Telemetry:    col,
	}
	events := GenTrace(DefaultTraceConfig(cfg.Horizon), seed)
	res, err := RunFleet(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Err(); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

func TestFleetTelemetryJSONLDeterministic(t *testing.T) {
	_, a := runTelemetryFleet(t, 1, 11)
	_, b := runTelemetryFleet(t, 4, 11)
	if a != b {
		t.Fatalf("same-seed fleets produced different telemetry streams:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	_, c := runTelemetryFleet(t, 1, 12)
	if a == c {
		t.Fatal("different seeds produced identical telemetry streams")
	}
	lines := strings.Split(strings.TrimSuffix(a, "\n"), "\n")
	// One record per control-plane epoch (3 s / 500 ms) plus the
	// terminal post-drain record.
	if want := 7; len(lines) != want {
		t.Fatalf("got %d telemetry records, want %d", len(lines), want)
	}
	for _, want := range []string{
		`"schema":"vscale-telemetry/v1"`,
		`"name":"vscale_fleet_slo_attainment_ratio"`,
		`"name":"vscale_host_util_ratio"`,
		`"name":"vscale_vm_reply_latency_ms"`,
		`"host":"0"`, `"vm":"`, `"policy":"vscale"`,
	} {
		if !strings.Contains(lines[len(lines)-1], want) {
			t.Fatalf("final record missing %q:\n%s", want, lines[len(lines)-1])
		}
	}
}

// TestFleetTelemetryJSONLPinned pins the telemetry stream's bytes
// across commits, not just between two runs of one build: a change to
// the exporter, the collector or anything the collector samples shows
// up here. When a change alters the stream on purpose, re-pin it and
// say why.
func TestFleetTelemetryJSONLPinned(t *testing.T) {
	_, stream := runTelemetryFleet(t, 1, 11)
	sum := sha256.Sum256([]byte(stream))
	const (
		wantSum   = "f1955bc7c68041b919665c0382c56cd0b845b6333eaf5ac63a6fda2935c38c27"
		wantBytes = 81531
	)
	if got := hex.EncodeToString(sum[:]); got != wantSum || len(stream) != wantBytes {
		t.Fatalf("telemetry stream is sha256 %s, %d bytes; pinned %s, %d bytes", got, len(stream), wantSum, wantBytes)
	}
}

// TestFleetTelemetryZeroObserverEffect: running with telemetry must not
// change any simulation result.
func TestFleetTelemetryZeroObserverEffect(t *testing.T) {
	run := func(withTelemetry bool) FleetResult {
		cfg := FleetConfig{
			Hosts:        2,
			PCPUsPerHost: 4,
			Policy:       "hotplug",
			Seed:         5,
			Horizon:      3 * sim.Second,
			SLO:          30 * sim.Millisecond,
		}
		if withTelemetry {
			sink, err := telemetry.NewSink("", &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Telemetry = telemetry.NewCollector(sink, false)
		}
		events := GenTrace(DefaultTraceConfig(cfg.Horizon), 5)
		res, err := RunFleet(cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	observed := run(true)
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("telemetry changed the fleet result:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
}

// TestFleetTelemetryScrape: the endpoint serves a valid exposition of
// the latest epoch while (and after) the fleet runs.
func TestFleetTelemetryScrape(t *testing.T) {
	sink, err := telemetry.NewSink("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	col := telemetry.NewCollector(sink, false, "policy", "static")
	cfg := FleetConfig{
		Hosts:        1,
		PCPUsPerHost: 4,
		Policy:       "static",
		Seed:         3,
		Horizon:      2 * sim.Second,
		SLO:          30 * sim.Millisecond,
		Telemetry:    col,
	}
	events := GenTrace(DefaultTraceConfig(cfg.Horizon), 3)
	if _, err := RunFleet(cfg, events); err != nil {
		t.Fatal(err)
	}
	_, body := httpGet(t, sink.Server().Addr(), "/metrics")
	for _, want := range []string{
		"# TYPE vscale_host_util_ratio gauge",
		"# TYPE vscale_vm_cpu_seconds_total counter",
		"# TYPE vscale_vm_reply_latency_ms summary",
		"# TYPE vscale_fleet_reply_latency_ms summary",
		`policy="static"`, `host="0"`, `vm="`, `quantile="0.99"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
}

// httpGet fetches one path from the scrape server.
func httpGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}
