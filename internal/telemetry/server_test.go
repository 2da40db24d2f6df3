package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"vscale/internal/metrics"
	"vscale/internal/sim"
)

func scrape(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
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

func TestServerScrape(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if code, _ := scrape(t, srv.Addr(), "/metrics"); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-publish scrape returned %d, want 503", code)
	}

	r := NewRegistry()
	r.GaugeSeries("vscale_sim_seconds", "virtual time", "host", "0").Set(2.5)
	srv.Publish(r.RenderProm())

	code, body := scrape(t, srv.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("scrape returned %d", code)
	}
	if !strings.Contains(body, `vscale_sim_seconds{host="0"} 2.5`) {
		t.Fatalf("scrape body missing series:\n%s", body)
	}

	// Publishing a new snapshot replaces the old one atomically.
	r.GaugeSeries("vscale_sim_seconds", "virtual time", "host", "0").Set(3)
	srv.Publish(r.RenderProm())
	if _, body := scrape(t, srv.Addr(), "/metrics"); !strings.Contains(body, "} 3\n") {
		t.Fatalf("second snapshot not served:\n%s", body)
	}

	if code, body := scrape(t, srv.Addr(), "/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index page broken: %d %q", code, body)
	}
}

func TestCollectorLiveAndBuffered(t *testing.T) {
	var live bytes.Buffer
	sink, err := NewSink("", &live)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	c := NewCollector(sink, false, "run", "0")
	c.Registry().GaugeSeries("g", "").Set(1)
	c.EpochDone(sim.Second)
	c.Registry().GaugeSeries("g", "").Set(2)
	c.EpochDone(2 * sim.Second)
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	lines := strings.Split(strings.TrimSuffix(live.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("live collector wrote %d records, want 2:\n%s", len(lines), live.String())
	}
	if !strings.Contains(lines[0], `"epoch":0`) || !strings.Contains(lines[1], `"epoch":1`) {
		t.Fatalf("epoch indices wrong:\n%s", live.String())
	}

	// Buffered collectors only reach the sink at Flush.
	var buffered bytes.Buffer
	sink2, err := NewSink("", &buffered)
	if err != nil {
		t.Fatal(err)
	}
	b := NewCollector(sink2, true, "run", "1")
	b.Registry().GaugeSeries("g", "").Set(5)
	b.EpochDone(sim.Second)
	if buffered.Len() != 0 {
		t.Fatal("buffered collector wrote before Flush")
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buffered.String(), `"run":"1"`) {
		t.Fatalf("flushed record missing base label:\n%s", buffered.String())
	}
}

func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	if c.Registry() != nil || c.Err() != nil || c.Epoch() != 0 {
		t.Fatal("nil collector not inert")
	}
	c.EpochDone(sim.Second)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	sink, err := NewSink("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Enabled() {
		t.Fatal("empty sink claims to be enabled")
	}
	if NewCollector(sink, false) != nil {
		t.Fatal("collector over an inert sink should be nil")
	}
	var none *Sink
	if none.Enabled() {
		t.Fatal("nil sink claims to be enabled")
	}
}

// TestCollectorSteadyStateAllocs gates the exporter's hot path: once
// every series exists, a collection epoch into a live JSONL sink
// allocates nothing — lookups hit in the registry's scratch, values are
// overwritten in place, and the record is encoded into the collector's
// reused buffer.
func TestCollectorSteadyStateAllocs(t *testing.T) {
	sink, err := NewSink("", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(sink, false, "policy", "vscale", "hosts", "4")
	h := metrics.NewHistogram(metrics.DefaultLatencyBuckets())
	for _, v := range []float64{0.3, 2, 40, 41} {
		h.Observe(v)
	}
	vms := []string{"vm0", "vm1", "vm2"}
	now := sim.Time(0)
	epoch := func() {
		reg := c.Registry()
		reg.GaugeSeries("vscale_sim_seconds", "Virtual time.").Set(now.Seconds())
		for i := 0; i < 4; i++ {
			host := strconv.Itoa(i)
			reg.CounterSeries("vscale_host_engine_events_total", "Events.", "host", host).Add(1000)
			for _, vm := range vms {
				labels := []string{"host", host, "vm", vm}
				reg.GaugeSeries("vscale_vm_vcpus", "vCPUs.", labels...).Set(4)
				reg.SummarySeries("vscale_vm_reply_latency_ms", "Latency.", labels...).
					SetFromHistogram(h, 0.5, 0.95, 0.99)
			}
		}
		now += 500 * sim.Millisecond
		c.EpochDone(now)
	}
	for i := 0; i < 3; i++ {
		epoch() // create the series and grow the buffers
	}
	if n := testing.AllocsPerRun(100, epoch); n != 0 {
		t.Fatalf("steady-state collection epoch allocated %v times, want 0", n)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}
