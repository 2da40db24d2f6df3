package experiments

import (
	"fmt"
	"strings"

	"vscale/internal/cluster"
	"vscale/internal/report"
	"vscale/internal/runner"
	"vscale/internal/sim"
	"vscale/internal/telemetry"
)

// BakeoffArm names one contestant of the elasticity bake-off: a
// scaling-policy name paired with an elasticity mode (see
// cluster.ElasticityFor).
type BakeoffArm struct {
	Name    string
	Policy  string
	Elastic string
}

// BakeoffArms is the fixed contest: vertical-only scaling (vScale's
// per-VM vCPU balancing, no fleet elasticity), horizontal-only scaling
// (static vCPU allocations, live migration + replica autoscaling), and
// the hybrid that runs both layers at once.
func BakeoffArms() []BakeoffArm {
	return []BakeoffArm{
		{Name: "vertical", Policy: "vscale", Elastic: "none"},
		{Name: "horizontal", Policy: "static", Elastic: "hybrid"},
		{Name: "hybrid", Policy: "vscale", Elastic: "hybrid"},
	}
}

// BakeoffResult is the bake-off's output: one fleet run per arm, every
// arm forked from the same warm-prefix snapshot of the same
// service-annotated churn trace.
type BakeoffResult struct {
	Hosts        int
	PCPUsPerHost int
	Horizon      sim.Time
	SLO          sim.Time
	WarmEpochs   int
	Arms         []BakeoffArm
	// Fleets holds one FleetResult per Arms entry, in order.
	Fleets []cluster.FleetResult
}

// Bakeoff runs the vertical-vs-horizontal elasticity bake-off: a
// service-annotated churn trace is generated once, its policy-neutral
// warm prefix is simulated once (with the hybrid elasticity layer
// built, so the snapshot carries the mode-free elasticity bookkeeping
// every arm can restore from — a warm capture's bookkeeping is a pure
// function of the routed trace), and each arm forks from that single
// snapshot into its measured window. All three arms therefore compete
// on identical VM lifecycles, identical warm histories and identical
// request arrivals; the cost and attainment differences are
// attributable to the scaling dimension alone.
//
// The trace is tuned to moderate overload: hot services outgrow what
// vertical scaling can provision on their anchor's host, which is the
// regime where horizontal capacity (replicas on other hosts, reached
// via migration-balanced headroom) pays for itself.
//
// sink (which may be nil) receives live per-epoch telemetry, one
// collector per arm labelled arm=<name>.
func Bakeoff(opts runner.Options, sink *telemetry.Sink, hosts, pcpus int, horizon, slo sim.Time, warmEpochs int) (BakeoffResult, error) {
	if warmEpochs <= 0 {
		return BakeoffResult{}, fmt.Errorf("warmEpochs must be > 0 (the arms fork from the warm snapshot)")
	}
	out := BakeoffResult{
		Hosts:        hosts,
		PCPUsPerHost: pcpus,
		Horizon:      horizon,
		SLO:          slo,
		WarmEpochs:   warmEpochs,
		Arms:         BakeoffArms(),
	}

	// One service-annotated trace for every arm. Eight services spread
	// the anchors thin enough that the replica controller has headroom
	// (a service's replica count is capped relative to its anchors),
	// and the hot 6000-RPS tier overloads an anchor's fair share of one
	// host so vertical-only scaling hits the host ceiling while the
	// fleet as a whole still has slack — the regime where migrating the
	// neighbours away and fanning the hot service out across replicas
	// buys attainment without buying vCPUs.
	tcfg := cluster.DefaultTraceConfig(horizon)
	tcfg.InitialVMs = 2 * hosts
	tcfg.ArrivalEvery = horizon / sim.Time(4*hosts)
	tcfg.RateChoices = []float64{500, 1500, 6000}
	tcfg.Services = []string{"web", "api", "db", "cache", "auth", "queue", "blob", "edge"}
	tcfg.DirtyBpsChoices = []float64{50e6, 200e6, 800e6}
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

	// The shared warm snapshot, captured with the hybrid layer built.
	// Warm captures are disarmed — they carry no elasticity-mode
	// signature — so the same snapshot forks into every arm, including
	// vertical-only (which simply ignores the elasticity state).
	capCfg := base
	capCfg.Migration, capCfg.ReplicaSet, _ = cluster.ElasticityFor("hybrid")
	tuneBakeoffMigration(capCfg.Migration)
	cp, err := cluster.CaptureWarmPrefix(capCfg, events)
	if err != nil {
		return out, fmt.Errorf("warm capture: %w", err)
	}

	for _, arm := range out.Arms {
		migCfg, rsCfg, err := cluster.ElasticityFor(arm.Elastic)
		if err != nil {
			return out, fmt.Errorf("%s: %w", arm.Name, err)
		}
		tuneBakeoffMigration(migCfg)
		fcfg := base
		fcfg.Policy = arm.Policy
		fcfg.Migration = migCfg
		fcfg.ReplicaSet = rsCfg
		fcfg.Telemetry = telemetry.NewCollector(sink, false, "arm", arm.Name)
		res, err := cluster.RunFleetFork(fcfg, events, cp)
		if err != nil {
			return out, fmt.Errorf("%s: %w", arm.Name, err)
		}
		if err := fcfg.Telemetry.Err(); err != nil {
			return out, fmt.Errorf("%s: %w", arm.Name, err)
		}
		out.Fleets = append(out.Fleets, res)
	}
	return out, nil
}

// tuneBakeoffMigration makes the rebalance pass conservative for the
// bake-off: a wide committed-vCPU deadband and every-other-boundary
// pacing, so migrations fire only on real imbalance. The default
// trigger is tuned for responsiveness; here each migration's link
// throttling must visibly pay for itself in the cost column.
func tuneBakeoffMigration(m *cluster.MigrationConfig) {
	if m != nil {
		m.TriggerVCPUs = 6
		m.Every = 2
	}
}

// arm returns the FleetResult for the named arm, or nil.
func (r BakeoffResult) arm(name string) *cluster.FleetResult {
	for i, a := range r.Arms {
		if a.Name == name && i < len(r.Fleets) {
			return &r.Fleets[i]
		}
	}
	return nil
}

// Render produces the bake-off table and the head-to-head verdict.
func (r BakeoffResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d host(s) × %d pCPUs, %v churn horizon (%d warm epochs), SLO: reply within %v\n",
		r.Hosts, r.PCPUsPerHost, r.Horizon, r.WarmEpochs, r.SLO)
	sb.WriteString("All arms fork from one warm-prefix snapshot of one service-annotated\n")
	sb.WriteString("trace: identical VM lifecycles, identical arrivals. vertical scales\n")
	sb.WriteString("vCPUs per VM (vScale); horizontal holds vCPUs static and scales VM\n")
	sb.WriteString("replicas across hosts (live migration + ReplicaSet controller); hybrid\n")
	sb.WriteString("runs both. Cost is provisioned vCPU-seconds.\n")

	tbl := report.NewTable("Vertical vs horizontal bake-off",
		"arm", "policy", "elastic", "offered", "p95", "p99", "SLO%", "migs", "downtime", "replicas", "cost")
	for i, arm := range r.Arms {
		if i >= len(r.Fleets) {
			break
		}
		f := r.Fleets[i]
		tbl.AddRow(
			arm.Name,
			arm.Policy,
			arm.Elastic,
			fmt.Sprintf("%d", f.Load.Offered),
			fmt.Sprintf("%.2f", f.Hist.Quantile(0.95)),
			fmt.Sprintf("%.2f", f.Hist.Quantile(0.99)),
			fmt.Sprintf("%.1f", 100*f.Attainment),
			fmt.Sprintf("%d", f.Migrations),
			fmt.Sprintf("%v", f.MigrationDowntime),
			fmt.Sprintf("%d", f.ReplicasCreated),
			fmt.Sprintf("%.1f", f.CostVCPUSeconds),
		)
	}
	sb.WriteString("\n")
	sb.WriteString(tbl.String())

	if v, h := r.arm("vertical"), r.arm("hybrid"); v != nil && h != nil {
		fmt.Fprintf(&sb, "hybrid vs vertical: %+.1f%% attainment at %+.1f%% cost\n",
			100*(h.Attainment-v.Attainment), 100*(h.CostVCPUSeconds/v.CostVCPUSeconds-1))
	}
	return sb.String()
}
