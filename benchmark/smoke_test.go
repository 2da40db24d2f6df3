package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes itself for every workload child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// BENCHMARK.json describes this program: the same workloads, and the
// metrics the result line carries with the units it gives them.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	var e2e []specMetric
	for _, m := range endToEnd {
		if gated[m.name] {
			e2e = append(e2e, specMetric{Name: m.name, Unit: m.unit})
		}
	}
	var layers []specMetric
	for _, m := range perLayer {
		layers = append(layers, specMetric{Name: m.name, Unit: m.unit})
	}
	for _, tc := range []struct {
		section   string
		got, want []specMetric
	}{{"end_to_end", s.EndToEnd, e2e}, {"per_layer", s.PerLayer, layers}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", tc.section, len(tc.got), len(tc.want))
			continue
		}
		for i, m := range tc.got {
			if m.Name != tc.want[i].Name || m.Unit != tc.want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", tc.section, i, m.Name, m.Unit, tc.want[i].Name, tc.want[i].Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better %q", tc.section, m.Name, m.Better)
			}
		}
	}
	for _, m := range s.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// A tiny run of every workload, untraced and traced, prints every
// metric of BENCHMARK.json with its unit, and every cell is correct.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in child processes")
	}
	s := readSpec(t)
	for _, tc := range []struct {
		trace string
		want  []specMetric
	}{{"0", s.EndToEnd}, {"1", s.PerLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-size", "tiny", "-seconds", "0.001", "-trace", tc.trace, "-out", t.TempDir()}
		if code := parentMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s: exit %d\n%s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("-trace %s: result line: %v", tc.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("-trace %s: correct %v, %d of %d failed\n%s", tc.trace, res.Correct, res.Failed, res.Attempted, stderr.String())
		}
		if len(res.Metrics) != len(tc.want)*len(s.Workloads) {
			t.Errorf("-trace %s: %d metrics in the result line, want %d", tc.trace, len(res.Metrics), len(tc.want)*len(s.Workloads))
		}
		for _, w := range s.Workloads {
			for _, m := range tc.want {
				got, ok := res.Metrics[w.Name+"/"+m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("-trace %s: %s %s = %+v, present %v; want unit %s", tc.trace, w.Name, m.Name, got, ok, m.Unit)
				}
			}
			if line := fmt.Sprintf("%s fail_frac 0 ratio", w.Name); !strings.Contains(stdout.String(), line+"\n") {
				t.Errorf("-trace %s: no %q line", tc.trace, line)
			}
		}
	}
}
