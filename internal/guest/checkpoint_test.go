package guest

import (
	"strings"
	"testing"

	"vscale/internal/sim"
)

// TestQuiesceRejectsDaemon: a running vScale daemon is not
// checkpointable, even while the kernel idles between its polls; the
// same idle kernel without the daemon is.
func TestQuiesceRejectsDaemon(t *testing.T) {
	for _, daemon := range []bool{false, true} {
		e := newEnv(t, 2, 4, nil, daemon)
		e.run(t, 105*sim.Millisecond)
		err := e.k.QuiesceCheck()
		if !daemon && err != nil {
			t.Fatalf("idle kernel without a daemon: %v", err)
		}
		if daemon && (err == nil || !strings.Contains(err.Error(), "daemon")) {
			t.Fatalf("idle kernel running the daemon: err = %v, want a daemon error", err)
		}
	}
}
