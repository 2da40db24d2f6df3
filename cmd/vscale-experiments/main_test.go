package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vscale/internal/clitest"
	"vscale/internal/cluster"
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

// TestQuickOutputPinned: the whole -quick stdout with eight workers is
// byte for byte docs/experiments-quick.txt. The file pins every figure
// cell of the quick sweep, so a change to any result shows up as a
// reviewed diff of it. One worker count keeps the test affordable under
// -race (about three minutes); the sweep's results do not depend on it,
// which the full sweep's pin at four workers (docs/experiments-output.txt)
// and internal/runner's tests check.
func TestQuickOutputPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "experiments-quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := clitest.Run(t, "-quick", "-parallel", "8")
	if code != 0 {
		t.Fatalf("-quick -parallel 8: exit %d, stderr %q", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("-quick -parallel 8 stdout differs from docs/experiments-quick.txt at %s", firstDiff(string(want), stdout))
	}
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "(equal)"
}

// TestWarmForkCheckpointRoundTrip: the warm-fork arm, and a restore of
// the checkpoint it writes, each in its own process, print the straight
// arm's stdout byte for byte. The file loads (version and digest check)
// and its bytes are pinned: the warm prefix is policy-neutral, so two
// policies write the same file as the default five, at a fraction of
// the cost under -race.
func TestWarmForkCheckpointRoundTrip(t *testing.T) {
	const (
		wantSHA = "170989af8a09ed655e5846f5da0618c083b90682c46893a20f130447aa3c4bfe"
		wantLen = 83919
	)
	ckpt := filepath.Join(t.TempDir(), "warm.ckpt")
	run := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-experiment", "cluster", "-quick", "-warm-epochs", "4", "-policies", "vscale,pid"}, extra...)
		code, stdout, stderr := clitest.Run(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, stderr)
		}
		return stdout
	}
	straight := run()
	if fork := run("-warmfork", "-checkpoint", ckpt); fork != straight {
		t.Errorf("-warmfork stdout differs from the straight run:\n--- straight ---\n%s\n--- warmfork ---\n%s", straight, fork)
	}
	if restore := run("-restore", ckpt); restore != straight {
		t.Errorf("-restore stdout differs from the straight run:\n--- straight ---\n%s\n--- restore ---\n%s", straight, restore)
	}
	if _, err := cluster.LoadCheckpoint(ckpt); err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != wantSHA || len(data) != wantLen {
		t.Fatalf("checkpoint sha256 %s, %d bytes; want %s, %d bytes", got, len(data), wantSHA, wantLen)
	}
}
