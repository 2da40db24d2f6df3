package main

import (
	"strings"
	"testing"

	"vscale/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestFlagValidation: every malformed flag or -vm spec exits 2 with a
// message naming the flag or the spec, instead of panicking inside
// core.ComputeExtendability or printing a nonsensical table.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-pcpus", "0", "-vm", "a:256:5ms:2"}, "-pcpus 0"},
		{[]string{"-pcpus", "-1", "-vm", "a:256:5ms:2"}, "-pcpus -1"},
		{[]string{"-period-ms", "0", "-vm", "a:256:5ms:2"}, "-period-ms 0"},
		{[]string{"-period-ms", "-3", "-vm", "a:256:5ms:2"}, "-period-ms -3"},
		{[]string{"-period-ms", "NaN", "-vm", "a:256:5ms:2"}, "-period-ms NaN"},
		{[]string{"-period-ms", "Inf", "-vm", "a:256:5ms:2"}, "-period-ms +Inf"},
		{[]string{"-period-ms", "1e300", "-vm", "a:256:5ms:2"}, "-period-ms 1e+300"},
		{[]string{"-vm", "a:0:5ms:2"}, `-vm "a:0:5ms:2"`},
		{[]string{"-vm", "a:-5:5ms:2"}, `-vm "a:-5:5ms:2"`},
		{[]string{"-vm", "a:NaN:5ms:2"}, `-vm "a:NaN:5ms:2"`},
		{[]string{"-vm", "a:Inf:5ms:2"}, `-vm "a:Inf:5ms:2"`},
		{[]string{"-vm", "a:256:-5ms:2"}, `-vm "a:256:-5ms:2"`},
		{[]string{"-vm", "a:256:5ms:-1"}, `-vm "a:256:5ms:-1"`},
		{[]string{"-vm", "a:256:5ms:2:-1"}, `-vm "a:256:5ms:2:-1"`},
		{[]string{"-vm", "a:256:5ms:2:NaN"}, `-vm "a:256:5ms:2:NaN"`},
		{[]string{"-vm", "a:256:5ms:2:Inf"}, `-vm "a:256:5ms:2:Inf"`},
	} {
		code, _, stderr := clitest.Run(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "panic") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %s", tc.args, code, stderr, tc.want)
		}
	}
}

// TestUnconstrainedZeros: a maxVCPUs or capPCPUs of 0 keeps meaning
// "unconstrained" and is accepted.
func TestUnconstrainedZeros(t *testing.T) {
	if code, _, stderr := clitest.Run(t, "-vm", "a:256:5ms:0:0", "-vm", "b:512:0s"); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}
