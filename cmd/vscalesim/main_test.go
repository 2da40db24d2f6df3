package main

import (
	"path/filepath"
	"strings"
	"testing"

	"vscale/internal/clitest"
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
		code, stderr := clitest.Run(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.flag+":") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %s", tc.args, code, stderr, tc.flag)
		}
	}
}

// TestZeroSLOAccepted: -slo 0 is a valid (if unattainable) objective.
func TestZeroSLOAccepted(t *testing.T) {
	if code, stderr := clitest.Run(t, "-slo", "0", "-workload", "httpd:1", "-max", "0.01", "-dedicated"); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}
