package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"vscale/internal/cluster"
	"vscale/internal/report"
	"vscale/internal/runner"
	"vscale/internal/sim"
)

// FleetScaleResult is the executor-scaling experiment's output: for
// each host count, the same fleet run at every worker count, with the
// simulation result asserted identical across them. Wall clocks and
// speedups go into Metrics (the bench JSON) only — never into the
// rendered text, which must be byte-identical run to run.
type FleetScaleResult struct {
	HostCounts   []int
	WorkerSet    []int
	PCPUsPerHost int
	Horizon      sim.Time
	SLO          sim.Time
	// Fleets maps host count → the canonical FleetResult (identical at
	// every worker count; FleetScale fails if not).
	Fleets map[int]cluster.FleetResult
	// Wall maps host count → wall seconds, index-aligned with WorkerSet.
	Wall map[int][]float64
}

// sameFleetResult compares two fleet results exactly (the histogram via
// its rendered moments and sum, since it holds pointers).
func sameFleetResult(a, b cluster.FleetResult) bool {
	if a.Hist.String() != b.Hist.String() || a.Hist.Sum() != b.Hist.Sum() {
		return false
	}
	a.Hist, b.Hist = nil, nil
	return reflect.DeepEqual(a, b)
}

// FleetScale measures how the fleet executor scales: for every host
// count it generates one light churn trace (the load is deliberately
// thin — the subject is executor overhead, not policy quality) and runs
// the same fleet once per worker count, timing each run and requiring
// every result to match the workers=1 run exactly. Placement recording
// is off: at a thousand hosts the per-VM log is dead weight.
func FleetScale(opts runner.Options, hostCounts, workerSet []int, pcpus int, horizon, slo sim.Time) (FleetScaleResult, error) {
	if len(hostCounts) == 0 || len(workerSet) == 0 {
		return FleetScaleResult{}, fmt.Errorf("fleetscale: need host counts and worker counts")
	}
	out := FleetScaleResult{
		HostCounts:   hostCounts,
		WorkerSet:    workerSet,
		PCPUsPerHost: pcpus,
		Horizon:      horizon,
		SLO:          slo,
		Fleets:       map[int]cluster.FleetResult{},
		Wall:         map[int][]float64{},
	}
	recordOff := false
	for _, hc := range hostCounts {
		// One VM per host initially plus steady arrivals, at request
		// rates low enough that a 1000-host fleet stays tractable.
		tcfg := cluster.DefaultTraceConfig(horizon)
		tcfg.InitialVMs = hc
		tcfg.ArrivalEvery = horizon / sim.Time(2*hc)
		tcfg.RateChoices = []float64{50, 100, 200}
		traceSeed := runner.DeriveSeed(opts.BaseSeed, hc)
		events := cluster.GenTrace(tcfg, traceSeed)

		for wi, w := range workerSet {
			fcfg := cluster.FleetConfig{
				Hosts:            hc,
				PCPUsPerHost:     pcpus,
				Policy:           "vscale",
				Seed:             traceSeed,
				Horizon:          horizon,
				SLO:              slo,
				Workers:          w,
				RecordPlacements: &recordOff,
				Report:           opts.Report,
			}
			start := time.Now()
			res, err := cluster.RunFleet(fcfg, events)
			if err != nil {
				return out, fmt.Errorf("fleetscale: %d hosts, %d workers: %w", hc, w, err)
			}
			out.Wall[hc] = append(out.Wall[hc], time.Since(start).Seconds())
			if wi == 0 {
				out.Fleets[hc] = res
			} else if !sameFleetResult(out.Fleets[hc], res) {
				return out, fmt.Errorf("fleetscale: %d hosts: workers=%d result differs from workers=%d",
					hc, w, workerSet[0])
			}
		}
	}
	return out, nil
}

// Metrics flattens the wall-clock series and speedups into bench keys:
// "<hosts>h/w<workers>/wall_seconds" and "<hosts>h/w<workers>/speedup"
// (relative to the first worker count of the sweep).
func (r FleetScaleResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, hc := range r.HostCounts {
		walls := r.Wall[hc]
		for i, w := range r.WorkerSet {
			prefix := fmt.Sprintf("%dh/w%d/", hc, w)
			m[prefix+"wall_seconds"] = walls[i]
			if walls[i] > 0 {
				m[prefix+"speedup"] = walls[0] / walls[i]
			}
		}
	}
	return m
}

// Render produces the deterministic summary: one row per host count
// (identical across worker counts by construction), plus the identity
// statement. Wall clocks are deliberately absent — see Metrics.
func (r FleetScaleResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d pCPUs/host, %v churn horizon, SLO: reply within %v\n",
		r.PCPUsPerHost, r.Horizon, r.SLO)
	var ws []string
	for _, w := range r.WorkerSet {
		ws = append(ws, fmt.Sprintf("%d", w))
	}
	fmt.Fprintf(&sb, "each fleet ran once per worker count {%s}; every run's result was\n", strings.Join(ws, ","))
	sb.WriteString("required to match the first bit for bit (wall clocks and speedups are\n")
	sb.WriteString("reported via the bench JSON, never here).\n\n")
	tbl := report.NewTable("Fleet scale: identical results at every worker count",
		"hosts", "VMs", "offered", "replies", "SLO%", "reconfigs", "util%", "cost")
	for _, hc := range r.HostCounts {
		f := r.Fleets[hc]
		tbl.AddRow(
			fmt.Sprintf("%d", hc),
			fmt.Sprintf("%d", f.Placed),
			fmt.Sprintf("%d", f.Load.Offered),
			fmt.Sprintf("%d", f.Load.Replies),
			fmt.Sprintf("%.1f", 100*f.Attainment),
			fmt.Sprintf("%d", f.Reconfigs),
			fmt.Sprintf("%.1f", 100*f.AvgHostUtil),
			fmt.Sprintf("%.1f", f.CostVCPUSeconds),
		)
	}
	sb.WriteString(tbl.String())
	return sb.String()
}
