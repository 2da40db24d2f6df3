package main

import (
	"fmt"
	"math"
	"os/exec"
	"strconv"
	"strings"
)

// topRow is one row of `go tool pprof -top` output.
type topRow struct {
	flat float64 // share of the profile total, 0..1
	cum  float64
	fn   string
	file string // "path/file.go" with -lines, "" without
}

// parseTop reads the table `go tool pprof -top` prints, with or without
// -lines: every non-empty line after the column header is a row of
// flat, flat%, sum%, cum, cum%, function and, with -lines, file:line.
func parseTop(text string) ([]topRow, error) {
	var rows []topRow
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) == 0 {
			continue
		}
		if len(f) < 6 {
			return nil, fmt.Errorf("pprof: short row %q", line)
		}
		flat, err1 := parsePct(f[1])
		cum, err2 := parsePct(f[4])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pprof: bad row %q", line)
		}
		r := topRow{flat: flat, cum: cum, fn: f[5]}
		if len(f) >= 7 && f[6] != "(inline)" {
			r.file, _, _ = strings.Cut(f[6], ":")
		}
		rows = append(rows, r)
	}
	if !inTable {
		return nil, fmt.Errorf("pprof: no table in output")
	}
	return rows, nil
}

func parsePct(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v / 100, err
}

// layerRule maps code to a layer: by file path for this repository's
// packages, by function name for the standard library and runtime.
// The first matching rule wins, so the specific files inside a package
// (checkpoint.go, elasticity.go) come before their package.
type layerRule struct {
	file  string // substring of the file path
	fn    string // prefix of the function name
	layer string
}

var layerRules = []layerRule{
	{file: "/internal/cluster/elasticity.go", layer: "elasticity"},
	{file: "/internal/cluster/migration/", layer: "elasticity"},
	{file: "/internal/cluster/replicaset/", layer: "elasticity"},
	{file: "/checkpoint.go", layer: "checkpoint"},
	{fn: "encoding/json.", layer: "checkpoint"},
	{fn: "crypto/sha256.", layer: "checkpoint"},
	{fn: "crypto/internal/fips140/sha256.", layer: "checkpoint"},
	{file: "/internal/cluster/telemetry.go", layer: "telemetry"},
	{file: "/internal/telemetry/", layer: "telemetry"},
	{file: "/internal/cluster/", layer: "cluster"},
	{file: "/internal/runner/", layer: "cluster"},
	{file: "/internal/dom0/", layer: "cluster"},
	{file: "/internal/sim/", layer: "sim"},
	{file: "/internal/xen/", layer: "xen"},
	{file: "/internal/guest/", layer: "guest"},
	{file: "/internal/workload/", layer: "workload"},
	{file: "/internal/loadgen/", layer: "loadgen"},
	{file: "/internal/core/", layer: "core"},
	{file: "/internal/scenario/", layer: "scenario"},
	{file: "/benchmark/", layer: "bench"},
	{fn: "runtime.", layer: "runtime"},
	{fn: "internal/runtime/", layer: "runtime"},
	{fn: "runtime/", layer: "runtime"},
}

// layerOf returns the layer of one profile location and whether it was
// placed by a standard-library rule (encoding/json, sha256, or no rule
// at all: "other"), i.e. by convention rather than by owning the code.
func layerOf(fn, file string) (layer string, byConvention bool) {
	file = "/" + strings.TrimPrefix(file, "/")
	for _, r := range layerRules {
		if r.file != "" && file != "/" && strings.Contains(file, r.file) {
			return r.layer, false
		}
		if r.fn != "" && strings.HasPrefix(fn, r.fn) {
			return r.layer, r.layer != "runtime"
		}
	}
	return "other", true
}

// layerShares sums each layer's flat share of a profile.
func layerShares(rows []topRow) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		l, _ := layerOf(r.fn, r.file)
		out[l] += r.flat
	}
	return out
}

// moveToLayer re-attributes the convention-placed rows of a focused
// profile (the samples under one layer's calls) to that layer: JSON
// encoding under telemetry collection is telemetry's cost, not the
// checkpoint layer's that encoding/json otherwise maps to.
func moveToLayer(shares map[string]float64, focused []topRow, layer string) {
	for _, r := range focused {
		if l, conv := layerOf(r.fn, r.file); conv {
			shares[l] -= r.flat
			shares[layer] += r.flat
			if math.Abs(shares[l]) < 1e-12 { // rounding residue of the subtraction
				shares[l] = 0
			}
		}
	}
}

// cumShare returns the cumulative share of the first row whose function
// name is fn, 0 when the function never appears.
func cumShare(rows []topRow, fn string) float64 {
	for _, r := range rows {
		if r.fn == fn {
			return r.cum
		}
	}
	return 0
}

// pprofTop runs `go tool pprof -top` on a profile, keeping every node.
func pprofTop(goBin, profile string, args ...string) ([]topRow, error) {
	argv := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, args...)
	out, err := exec.Command(goBin, append(argv, profile)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", strings.Join(args, " "), err)
	}
	return parseTop(string(out))
}
