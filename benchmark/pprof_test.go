package main

import (
	"math"
	"os"
	"testing"
)

func readFixture(t *testing.T, name string) []topRow {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parseTop(string(data))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestParseTopLines(t *testing.T) {
	rows := readFixture(t, "pprof-top-lines.txt")
	if len(rows) != 24 {
		t.Fatalf("parsed %d rows, want 24", len(rows))
	}
	for _, tc := range []struct {
		i         int
		flat, cum float64
		fn, file  string
	}{
		{0, 0.0342, 0.0342, "vscale/internal/sim.(*eventHeap).less", "/home/dev/vscale/internal/sim/engine.go"},
		{1, 0.0264, 0.0450, "vscale/internal/sim.(*eventHeap).down", "/home/dev/vscale/internal/sim/engine.go"},
		{6, 0.0016, 0.0016, "crypto/internal/fips140/sha256.blockSHANI", "/usr/local/go/src/crypto/internal/fips140/sha256/sha256block_amd64.s"},
	} {
		r := rows[tc.i]
		if math.Abs(r.flat-tc.flat) > 1e-9 || math.Abs(r.cum-tc.cum) > 1e-9 || r.fn != tc.fn || r.file != tc.file {
			t.Errorf("row %d = %+v, want flat %v cum %v fn %s file %s", tc.i, r, tc.flat, tc.cum, tc.fn, tc.file)
		}
	}
}

func TestParseTopFunctions(t *testing.T) {
	rows := readFixture(t, "pprof-top.txt")
	if len(rows) != 5 || rows[1].file != "" || rows[1].fn != "vscale/internal/sim.(*eventHeap).less" {
		t.Fatalf("rows = %+v", rows)
	}
	if got := cumShare(rows, "vscale/internal/cluster.RestoreHost"); math.Abs(got-0.0559) > 1e-9 {
		t.Errorf("RestoreHost cum share = %v, want 0.0559", got)
	}
	if got := cumShare(rows, "vscale/internal/cluster.(*Host).RunEpoch"); math.Abs(got-0.7034) > 1e-9 {
		t.Errorf("RunEpoch cum share = %v, want 0.7034", got)
	}
	if got := cumShare(rows, "vscale/internal/telemetry.(*Collector).EpochDone"); got != 0 {
		t.Errorf("absent function has cum share %v", got)
	}
}

func TestParseTopEdges(t *testing.T) {
	if _, err := parseTop("File: x\nno table here\n"); err == nil {
		t.Error("output without a table parsed")
	}
	// A focus that matches nothing prints the header and no rows.
	rows, err := parseTop("Showing nodes accounting for 0, 0% of 5.36s total\n      flat  flat%   sum%        cum   cum%\n")
	if err != nil || len(rows) != 0 {
		t.Errorf("empty table: rows %v, err %v", rows, err)
	}
	if _, err := parseTop("      flat  flat%   sum%        cum   cum%\n 1s 1x% 1% 1s 1% f\n"); err == nil {
		t.Error("malformed percentage parsed")
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		fn, file string
		layer    string
		conv     bool
	}{
		{"vscale/internal/sim.(*Engine).step", "/src/vscale/internal/sim/engine.go", "sim", false},
		{"vscale/internal/sim.(*Engine).RearmPending", "/src/vscale/internal/sim/checkpoint.go", "checkpoint", false},
		{"vscale/internal/cluster.RestoreHost", "/src/vscale/internal/cluster/checkpoint.go", "checkpoint", false},
		{"vscale/internal/cluster.(*elasticity).pass", "/src/vscale/internal/cluster/elasticity.go", "elasticity", false},
		{"vscale/internal/cluster/migration.PreCopy", "/src/vscale/internal/cluster/migration/migration.go", "elasticity", false},
		{"vscale/internal/cluster/replicaset.(*Controller).Reconcile", "vscale/internal/cluster/replicaset/replicaset.go", "elasticity", false},
		{"vscale/internal/cluster.collectTelemetry", "/src/vscale/internal/cluster/telemetry.go", "telemetry", false},
		{"vscale/internal/telemetry.(*Registry).RenderJSONL", "/src/vscale/internal/telemetry/registry.go", "telemetry", false},
		{"vscale/internal/cluster.(*Host).RunEpoch", "/src/vscale/internal/cluster/host.go", "cluster", false},
		{"vscale/internal/runner.(*Pool).worker", "/src/vscale/internal/runner/pool.go", "cluster", false},
		{"vscale/internal/xen.(*Pool).dispatch", "/src/vscale/internal/xen/pool.go", "xen", false},
		{"vscale/internal/guest.(*Kernel).startSegment", "/src/vscale/internal/guest/kernel.go", "guest", false},
		{"vscale/internal/workload/httpd.(*Server).Offer", "/src/vscale/internal/workload/httpd/httpd.go", "workload", false},
		{"vscale/internal/loadgen.(*Generator).arrive", "/src/vscale/internal/loadgen/loadgen.go", "loadgen", false},
		{"vscale/internal/core.ComputeExtendability", "/src/vscale/internal/core/extendability.go", "core", false},
		{"runtime.mallocgc", "/usr/local/go/src/runtime/malloc.go", "runtime", false},
		{"internal/runtime/maps.(*Map).getWithoutKeySmallFastStr", "/usr/local/go/src/internal/runtime/maps/runtime_faststr_swiss.go", "runtime", false},
		{"runtime/pprof.(*profileBuilder).addCPUData", "", "runtime", false},
		{"encoding/json.(*decodeState).object", "/usr/local/go/src/encoding/json/decode.go", "checkpoint", true},
		{"crypto/sha256.(*digest).Write", "", "checkpoint", true},
		{"sort.insertionSort", "/usr/local/go/src/sort/zsortinterface.go", "other", true},
		{"main.(*probe).call", "/src/vscale/benchmark/probe.go", "bench", false},
	} {
		layer, conv := layerOf(tc.fn, tc.file)
		if layer != tc.layer || conv != tc.conv {
			t.Errorf("layerOf(%s, %s) = %s, %v; want %s, %v", tc.fn, tc.file, layer, conv, tc.layer, tc.conv)
		}
	}
}

func TestLayerShares(t *testing.T) {
	shares := layerShares(readFixture(t, "pprof-top-lines.txt"))
	want := map[string]float64{
		"sim": 0.0606, "runtime": 0.0668, "checkpoint": 0.0141, "elasticity": 0.0063,
		"telemetry": 0.0078, "cluster": 0.0094, "xen": 0.0031, "core": 0.0031,
		"loadgen": 0.0047, "workload": 0.0031, "scenario": 0.0016, "bench": 0.0016, "other": 0.0032,
	}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-9 {
			t.Errorf("%s share = %v, want %v", l, shares[l], w)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("layers %v, want %v", shares, want)
	}
}

// JSON encoding found under telemetry collection is telemetry's cost;
// the runtime's share stays the runtime's.
func TestMoveToLayer(t *testing.T) {
	shares := layerShares(readFixture(t, "pprof-top-lines.txt"))
	focused, err := parseTop(`      flat  flat%   sum%        cum   cum%
     0.01s  0.16%  0.16%      0.01s  0.16%  encoding/json.(*encodeState).string /usr/local/go/src/encoding/json/encode.go:960
     0.41s  1.00%  1.16%      0.41s  1.00%  runtime.scanobject /usr/local/go/src/runtime/mgcmark.go:1444
     0.04s  0.62%  1.78%      0.04s  0.62%  vscale/internal/telemetry.(*Registry).RenderJSONL /src/vscale/internal/telemetry/registry.go:345
     0.01s  0.16%  1.94%      0.01s  0.16%  sort.insertionSort /usr/local/go/src/sort/zsortinterface.go:12
`)
	if err != nil {
		t.Fatal(err)
	}
	moveToLayer(shares, focused, "telemetry")
	for l, w := range map[string]float64{"checkpoint": 0.0125, "telemetry": 0.0110, "runtime": 0.0668, "other": 0.0016} {
		if math.Abs(shares[l]-w) > 1e-9 {
			t.Errorf("%s share = %v, want %v", l, shares[l], w)
		}
	}
}
