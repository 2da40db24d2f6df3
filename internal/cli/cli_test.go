package cli

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vscale/internal/sim"
	"vscale/internal/telemetry"
)

// start registers the shared flags on a fresh flag set, parses args and
// starts the outputs.
func start(t *testing.T, args ...string) *Outputs {
	t.Helper()
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestTelemetryScrape: with -telemetry-addr on an ephemeral port, a
// published epoch is scrapeable while the command runs, the same epoch
// lands in the -telemetry-out file, and Finish shuts the endpoint down
// without printing anything on stdout.
func TestTelemetryScrape(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "t.jsonl")
	o := start(t, "-telemetry-addr", "127.0.0.1:0", "-telemetry-out", jsonl)
	addr := o.Sink().Server().Addr()

	col := telemetry.NewCollector(o.Sink(), false, "run", "0")
	col.Clock(1500 * sim.Millisecond)
	col.EpochDone(1500 * sim.Millisecond)

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE vscale_sim_seconds gauge",
		`vscale_sim_seconds{run="0"} 1.5`,
		`vscale_telemetry_epoch{run="0"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}

	var stdout bytes.Buffer
	if err := o.Finish(&stdout, nil); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("Finish printed %q without -trace or -schedstats", stdout.String())
	}
	b, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != 1 || !strings.Contains(string(b), `"epoch":0,"vt_ms":1500`) {
		t.Fatalf("JSONL has %d records:\n%s", lines, b)
	}
	if resp, err := http.Get("http://" + addr + "/metrics"); err == nil {
		resp.Body.Close()
		t.Fatal("scrape endpoint still serving after Finish")
	}
}

// TestFinishReportsTracing: with -schedstats and -trace, Finish writes
// the Chrome file and prints its summary line and the schedstats table,
// even when no run recorded anything.
func TestFinishReportsTracing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	o := start(t, "-trace", path, "-schedstats")
	if !o.Tracing() || o.TraceCapacity() <= 0 {
		t.Fatalf("Tracing() = %v, TraceCapacity() = %d", o.Tracing(), o.TraceCapacity())
	}
	var stdout bytes.Buffer
	if err := o.Finish(&stdout, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), "\nwrote Chrome trace to "+path+" (0 events recorded, 0 dropped)\n\n") {
		t.Fatalf("stdout %q", stdout.String())
	}
	if b, err := os.ReadFile(path); err != nil || !bytes.Contains(b, []byte(`"traceEvents"`)) {
		t.Fatalf("Chrome trace %q, %v", b, err)
	}
}
