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

// WarmForkResult is the warm-fork amortization experiment's output: the
// same policy scoreboard produced two ways — each policy straight
// through (warm prefix re-simulated per policy) and forked from one
// shared warm-prefix snapshot — with the results asserted identical
// pairwise. Wall clocks stay out of the rendered text, which must be
// byte-identical run to run; TestWarmForkAmortization gates them.
type WarmForkResult struct {
	Hosts        int
	PCPUsPerHost int
	Horizon      sim.Time
	SLO          sim.Time
	Epochs       int
	WarmEpochs   int
	// Policies is the scoreboard order; Fleets is index-aligned with it
	// (the canonical results — straight and forked agree exactly).
	Policies []string
	Fleets   []cluster.FleetResult
	// StraightWall and ForkWall are per-policy wall seconds,
	// index-aligned with Policies; WarmWall is the one shared warm
	// prefix simulation (capture included) the forks amortize.
	StraightWall []float64
	WarmWall     float64
	ForkWall     []float64
}

// WarmFork measures what the checkpoint/restore layer buys: for one
// fleet shape it generates a churn trace, runs every policy straight
// through (each run paying the full policy-neutral warm prefix), then
// simulates the warm prefix exactly once, snapshots the quiesced fleet
// at the warm boundary, and forks every policy from the restored
// snapshot — requiring each forked result to match its straight run
// bit for bit. The warm:measure ratio is deliberately ≥ 1:1 (the
// regime warm-fork exists for).
func WarmFork(opts runner.Options, hosts, pcpus int, horizon, slo sim.Time, warmEpochs int, policies []string) (WarmForkResult, error) {
	if len(policies) == 0 {
		policies = cluster.PolicyNames()
	}
	epochs := int(horizon / cluster.DefaultEpoch)
	if warmEpochs <= 0 || warmEpochs >= epochs {
		return WarmForkResult{}, fmt.Errorf("warm epochs %d outside (0, %d)", warmEpochs, epochs)
	}
	out := WarmForkResult{
		Hosts:        hosts,
		PCPUsPerHost: pcpus,
		Horizon:      horizon,
		SLO:          slo,
		Epochs:       epochs,
		WarmEpochs:   warmEpochs,
		Policies:     policies,
	}

	// The same hot churn shape the cluster shoot-out uses, so the
	// amortized scoreboard is the real one.
	tcfg := cluster.DefaultTraceConfig(horizon)
	tcfg.InitialVMs = 2 * hosts
	tcfg.ArrivalEvery = horizon / sim.Time(4*hosts)
	tcfg.RateChoices = []float64{1000, 3000, 6000}
	traceSeed := runner.DeriveSeed(opts.BaseSeed, hosts)
	events := cluster.GenTrace(tcfg, traceSeed)

	base := cluster.FleetConfig{
		Hosts:        hosts,
		PCPUsPerHost: pcpus,
		Seed:         traceSeed,
		Horizon:      horizon,
		SLO:          slo,
		Workers:      opts.Workers,
		WarmEpochs:   warmEpochs,
		Report:       opts.Report,
	}

	// Arm 1: every policy straight through, each paying the warm prefix.
	for _, p := range policies {
		cfg := base
		cfg.Policy = p
		start := time.Now()
		res, err := cluster.RunFleet(cfg, events)
		if err != nil {
			return out, fmt.Errorf("straight %s: %w", p, err)
		}
		out.StraightWall = append(out.StraightWall, time.Since(start).Seconds())
		out.Fleets = append(out.Fleets, res)
	}

	// Arm 2: the warm prefix once, then one fork per policy.
	start := time.Now()
	cp, err := cluster.CaptureWarmPrefix(base, events)
	if err != nil {
		return out, fmt.Errorf("capture: %w", err)
	}
	out.WarmWall = time.Since(start).Seconds()
	for i, p := range policies {
		cfg := base
		cfg.Policy = p
		start := time.Now()
		res, err := cluster.RunFleetFork(cfg, events, cp)
		if err != nil {
			return out, fmt.Errorf("fork %s: %w", p, err)
		}
		out.ForkWall = append(out.ForkWall, time.Since(start).Seconds())
		if !sameFleetResult(out.Fleets[i], res) {
			return out, fmt.Errorf("%s: forked result differs from straight run", p)
		}
	}
	return out, nil
}

// straightTotal and forkTotal are the two arms' wall clocks: the sum
// of the straight runs vs the shared warm prefix plus the forks.
func (r WarmForkResult) straightTotal() float64 {
	var s float64
	for _, w := range r.StraightWall {
		s += w
	}
	return s
}

func (r WarmForkResult) forkTotal() float64 {
	s := r.WarmWall
	for _, w := range r.ForkWall {
		s += w
	}
	return s
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

// Render produces the deterministic summary: the fleet shape, the
// identity statement, and the scoreboard (identical between arms by
// construction). Wall clocks are deliberately absent.
func (r WarmForkResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d host(s), %d pCPUs/host, %v churn horizon (%d epochs, %d warm), SLO: reply within %v\n",
		r.Hosts, r.PCPUsPerHost, r.Horizon, r.Epochs, r.WarmEpochs, r.SLO)
	fmt.Fprintf(&sb, "each policy ran twice: straight through, and forked from one shared\n")
	fmt.Fprintf(&sb, "%d-epoch warm-prefix snapshot; every forked result was required to\n", r.WarmEpochs)
	sb.WriteString("match its straight run bit for bit (wall clocks are never printed\n")
	sb.WriteString("here, so this output is byte-identical run to run).\n\n")
	tbl := report.NewTable("Warm-fork: identical scoreboard from both arms",
		"policy", "VMs", "offered", "replies", "p95", "SLO%", "reconfigs", "util%", "cost")
	for i, p := range r.Policies {
		f := r.Fleets[i]
		tbl.AddRow(
			p,
			fmt.Sprintf("%d", f.Placed),
			fmt.Sprintf("%d", f.Load.Offered),
			fmt.Sprintf("%d", f.Load.Replies),
			fmt.Sprintf("%.2f", f.Hist.Quantile(0.95)),
			fmt.Sprintf("%.1f", 100*f.Attainment),
			fmt.Sprintf("%d", f.Reconfigs),
			fmt.Sprintf("%.1f", 100*f.AvgHostUtil),
			fmt.Sprintf("%.1f", f.CostVCPUSeconds),
		)
	}
	sb.WriteString(tbl.String())
	return sb.String()
}
