package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vscale/internal/clitest"
	"vscale/internal/loadgen"
	"vscale/internal/scenario"
	"vscale/internal/sim"
	"vscale/internal/telemetry"
	"vscale/internal/trace"
	"vscale/internal/workload/httpd"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestSpanFlagValidation: a duration flag that sim.CheckSpan rejects
// exits 2 naming the flag, instead of running to a negative deadline,
// reporting an SLO of NaN or a negative one, or collecting no telemetry.
func TestSpanFlagValidation(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.jsonl")
	httpd := []string{"-workload", "httpd:1", "-max", "0.01", "-dedicated"}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-max", "0"}, "-max"},
		{[]string{"-max", "-1"}, "-max"},
		{[]string{"-max", "NaN"}, "-max"},
		{[]string{"-max", "1e300"}, "-max"},
		{append([]string{"-slo", "NaN"}, httpd...), "-slo"},
		{append([]string{"-slo", "-5"}, httpd...), "-slo"},
		{[]string{"-max", "0.01", "-telemetry-epoch", "-1s", "-telemetry-out", out}, "-telemetry-epoch"},
		{[]string{"-max", "0.01", "-telemetry-epoch", "0s", "-telemetry-out", out}, "-telemetry-epoch"},
	} {
		code, _, stderr := clitest.Run(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.flag+":") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %s", tc.args, code, stderr, tc.flag)
		}
	}
}

// TestZeroSLOAccepted: -slo 0 is a valid (if unattainable) objective.
func TestZeroSLOAccepted(t *testing.T) {
	if code, _, stderr := clitest.Run(t, "-slo", "0", "-workload", "httpd:1", "-max", "0.01", "-dedicated"); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

// TestOutputPathsCheckedFirst: an output file that cannot be created
// fails the command before any run, with exit 1 naming its flag and
// nothing on stdout. The unknown workload shows that -trace is checked
// before the workload is resolved, not after the run.
func TestOutputPathsCheckedFirst(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "out")
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-trace", missing, "-workload", "npb:nosuch"}, "-trace"},
		{[]string{"-cpuprofile", missing, "-max", "0.01"}, "-cpuprofile"},
		{[]string{"-memprofile", missing, "-max", "0.01"}, "-memprofile"},
		{[]string{"-telemetry-out", missing, "-max", "0.01"}, "-telemetry-out"},
	} {
		code, stdout, stderr := clitest.Run(t, tc.args...)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, tc.flag+":") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 naming %s before any output", tc.args, code, stdout, stderr, tc.flag)
		}
	}
}

// TestCollectScenarioAllocs: once a run's series exist, a collection
// epoch of a built scenario allocates nothing, with or without a
// tracer: the tracer-fed host counters are summed from its per-vCPU
// accumulators, not from a finalized snapshot.
func TestCollectScenarioAllocs(t *testing.T) {
	sink, err := telemetry.NewSink("", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		s := scenario.DefaultSetup()
		if traced {
			s.Tracer = trace.New(trace.Config{RingCapacity: 64})
		}
		b := scenario.Build(s)
		srv, err := httpd.NewServer(b.K, httpd.NewLink(b.Eng, httpd.DefaultConfig().LinkBps), httpd.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		gen := loadgen.New(b.Eng, srv, sim.NewRand(7), 50*sim.Millisecond)
		gen.SetRate(2000)
		col := telemetry.NewCollector(sink, false, "run", "0")
		if err := b.RunObserved(sim.Second, 500*sim.Millisecond, func(now sim.Time) {
			collectScenario(col, b, gen, 50, now)
		}); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { collectScenario(col, b, gen, 50, b.Eng.Now()) }); n != 0 {
			t.Errorf("traced=%v: a collection epoch allocated %v times, want 0", traced, n)
		}
		if err := col.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOutputsPinned pins vscalesim's stdout and its -telemetry-out JSONL
// by sha256 across commits. Each run covers one part of the output path:
//
//   - traced: the tracer-gated host counters, the schedstats table and
//     the Chrome trace file;
//   - repeats: the order in which the per-run buffered collectors
//     flush, the same for -parallel 2 and 1;
//   - httpd: the warm, window and drain legs, collected at whole
//     multiples of a 300 ms epoch on the engine clock.
//
// The temporary directory is replaced by "DIR" in stdout, and the two
// wall-clock lines that -runs > 1 prints are dropped. When a change
// alters an output on purpose, re-pin it and say why.
func TestOutputsPinned(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		args                 []string
		stdout, jsonl, trace string // trace is empty without -trace
	}{
		{"traced", []string{"-workload", "npb:cg", "-mode", "baseline", "-spincount", "0", "-max", "20", "-schedstats", "-tracecap", "2000"},
			"5c30f4cfe3782f1d7821d919cbe2ef9a7f48897d87f4f6ad32b05db1dcdd1b81 2923",
			"3c1f2690d69ff74517cb6ce5e82c4ffd4854a117dae34a4a95613a3b0eafd162 28671",
			"38a22277037299e664c7355365b7f704f965d00ff6b3e4f96470ead959315bf2 268303"},
		{"repeats", []string{"-workload", "npb:cg", "-mode", "vscale", "-max", "20", "-runs", "2", "-parallel", "2"},
			"6277aee52c4d18ba85d340b1d2c55fe1b88542e8039c8aaa6d026bd2891431c3 425",
			"af499adfac4baa7ae46a75f4d159ab26862be2c5aba8cb9da0ce9cb5a4c22932 53139", ""},
		{"repeats-serial", []string{"-workload", "npb:cg", "-mode", "vscale", "-max", "20", "-runs", "2", "-parallel", "1"},
			"6277aee52c4d18ba85d340b1d2c55fe1b88542e8039c8aaa6d026bd2891431c3 425",
			"af499adfac4baa7ae46a75f4d159ab26862be2c5aba8cb9da0ce9cb5a4c22932 53139", ""},
		{"httpd", []string{"-workload", "httpd:4", "-mode", "vscale", "-max", "2", "-telemetry-epoch", "300ms"},
			"81f444cc53d136c8ba2359e0ef36f18715b7e3d0ad14df8b8b889a85b1fdfd59 262",
			"543e1deffc852c2ed01b864174cc12f21ea6fc4b4aeb215fd86b8239c0079e9e 60763", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jsonl, chrome := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "t.json")
			args := append([]string{"-telemetry-out", jsonl}, tc.args...)
			if tc.trace != "" {
				args = append(args, "-trace", chrome)
			}
			code, stdout, stderr := clitest.Run(t, args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			var kept []string
			for _, line := range strings.SplitAfter(strings.ReplaceAll(stdout, dir, "DIR"), "\n") {
				if !wallClockLine.MatchString(line) {
					kept = append(kept, line)
				}
			}
			checkSum(t, "stdout", []byte(strings.Join(kept, "")), tc.stdout)
			checkSum(t, "JSONL", readFile(t, jsonl), tc.jsonl)
			if tc.trace != "" {
				checkSum(t, "Chrome trace", readFile(t, chrome), tc.trace)
			}
		})
	}
}

// wallClockLine matches the two timing lines of a -runs > 1 report.
var wallClockLine = regexp.MustCompile(`^(\d+ runs in .* wall \(|per-run wall: )`)

func checkSum(t *testing.T, what string, b []byte, want string) {
	t.Helper()
	if got := fmt.Sprintf("%x %d", sha256.Sum256(b), len(b)); got != want {
		t.Errorf("%s is sha256 and length %q, pinned %q", what, got, want)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
