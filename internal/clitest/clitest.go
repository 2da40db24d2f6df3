// Package clitest runs a command's main function in a child process, so
// a command's tests can check its real exit status, stdout and stderr
// (flag validation exits with status 2 instead of returning an error).
//
// A command's test file hands its main to Main from TestMain, then
// calls Run:
//
//	func TestMain(m *testing.M) { clitest.Main(m, main) }
//
//	code, stdout, stderr := clitest.Run(t, "-flag", "value")
package clitest

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// childEnv marks the re-executed test binary as the command.
const childEnv = "VSCALE_CLITEST_MAIN"

// Main runs the tests, or, in a child started by Run, the command's
// main followed by a zero exit (main exits non-zero itself).
func Main(m *testing.M, main func()) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run re-executes the test binary as the command with args and returns
// its exit status, stdout and stderr.
func Run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, out.String(), errOut.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), out.String(), errOut.String()
	}
	t.Fatalf("running %v: %v", args, err)
	return 0, "", ""
}
