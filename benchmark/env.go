package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// envStamp is the environment every result is taken in. A number
// without it cannot be compared with another: the same code reads
// differently on another CPU, core count or toolchain.
type envStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

// stamp describes this process. gomaxprocs is passed in because the
// parent reports the value its children run with, not its own.
func stamp(seed uint64, gomaxprocs int) envStamp {
	return envStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: gomaxprocs,
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or returns
// GOARCH where the file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit returns the VCS revision the binary was built from, falling
// back to asking git about the current directory, and "unknown" when it
// is not a repository's root: git would otherwise search the parent
// directories, outside the checkout the benchmark runs in.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// speedupAllowed reports whether a parallel speedup measured here means
// anything: with one CPU, or one P, two workers only take turns.
func speedupAllowed(nproc, gomaxprocs int) bool {
	return nproc >= 2 && gomaxprocs >= 2
}
