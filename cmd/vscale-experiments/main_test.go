package main

import (
	"path/filepath"
	"strings"
	"testing"

	"vscale/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestWindowFlagValidation: a -window that sim.CheckSpan rejects exits 2
// naming the flag, instead of silently measuring Figure 14 with 20 s
// windows.
func TestWindowFlagValidation(t *testing.T) {
	for _, w := range []string{"0", "-1", "NaN", "1e300"} {
		code, _, stderr := clitest.Run(t, "-run", "table1", "-window", w)
		if code != 2 || !strings.Contains(stderr, "-window:") {
			t.Errorf("-window %s: exit %d, stderr %q; want exit 2 naming -window", w, code, stderr)
		}
	}
}

// TestOutputPathsCheckedFirst: an output file that cannot be created
// fails the command before any experiment runs, with exit 1 naming its
// flag and nothing on stdout.
func TestOutputPathsCheckedFirst(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "out")
	for _, flag := range []string{"-trace", "-cpuprofile", "-memprofile", "-telemetry-out"} {
		code, stdout, stderr := clitest.Run(t, "-run", "table3", flag, missing)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, flag+":") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 naming %s before any output", flag, code, stdout, stderr, flag)
		}
	}
}

// TestElasticFlagValidation: an unknown -elastic mode exits 2 naming the
// flag before any experiment runs, whether or not the selection
// includes the cluster experiment that reads it.
func TestElasticFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "table3", "-elastic", "bogus"},
		{"-experiment", "cluster", "-quick", "-elastic", "bogus"},
	} {
		code, stdout, stderr := clitest.Run(t, args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "-elastic:") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming -elastic before any output", args, code, stdout, stderr)
		}
	}
}
