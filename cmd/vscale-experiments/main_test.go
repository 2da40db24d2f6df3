package main

import (
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
		code, stderr := clitest.Run(t, "-run", "table1", "-window", w)
		if code != 2 || !strings.Contains(stderr, "-window:") {
			t.Errorf("-window %s: exit %d, stderr %q; want exit 2 naming -window", w, code, stderr)
		}
	}
}
