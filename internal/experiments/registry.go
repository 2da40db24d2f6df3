package experiments

import (
	"fmt"
	"strings"
	"sync"

	"vscale/internal/runner"
	"vscale/internal/sim"
	"vscale/internal/telemetry"
)

// Config parameterises one pass over the registry: sweep sizes (quick
// vs full), the Apache measurement window, and the runner options every
// experiment fans its jobs out with. A single Config is shared across
// the experiments of one CLI invocation so that figure9/figure10 reuse
// figure6's NPB runs and figure13 reuses figure11's PARSEC runs instead
// of re-simulating them.
type Config struct {
	// Quick shrinks every sweep to its smoke-test size.
	Quick bool
	// Window is the Apache measurement window per load level (default
	// 20 s; the paper uses 1 min).
	Window sim.Time
	// Workers bounds each experiment's worker pool; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// BaseSeed roots the per-run seed derivation (the paper sweeps pin
	// their own seeds; the derived seeds feed repeat-run harnesses).
	BaseSeed uint64
	// Trace hands every simulation run a private tracer; collect them
	// from the Results' Reports and combine with trace.Merge.
	Trace bool
	// TraceCapacity sizes each per-run ring.
	TraceCapacity int
	// Telemetry, when enabled, receives live per-epoch telemetry from
	// the experiments that support it (currently the cluster fleets):
	// scrape snapshots to the sink's server, deterministic JSONL records
	// to its stream. Experiment stdout is unaffected.
	Telemetry *telemetry.Sink
	// Policies selects the scaling policies the cluster experiment
	// competes (registry names, see cluster.ParsePolicies); empty means
	// every registered policy.
	Policies []string
	// WarmEpochs gives every cluster fleet run a policy-neutral warm
	// prefix of that many epochs (the warmfork experiment uses it to
	// override its default warm length; 0 keeps the defaults).
	WarmEpochs int
	// WarmFork makes the cluster experiment simulate each host count's
	// warm prefix once and fork every policy from the snapshot instead
	// of re-simulating it per policy (requires WarmEpochs > 0).
	WarmFork bool
	// CheckpointPath persists the cluster experiment's warm-prefix
	// snapshot to a file; RestorePath loads one instead of simulating
	// the prefix. See ClusterWarm.
	CheckpointPath string
	RestorePath    string
	// Elastic selects the cluster fleets' elasticity mode (see
	// cluster.ElasticityFor): "" or "none"/"vertical" for the historical
	// vertical-only fleets, "migrate"/"replicas"/"hybrid" to turn on
	// live migration and/or ReplicaSet-style horizontal autoscaling.
	Elastic string

	mu      sync.Mutex
	npb4    *npbMemo
	parsec4 *parsecMemo
}

type npbMemo struct {
	res NPBResult
	err error
}

type parsecMemo struct {
	res ParsecResult
	err error
}

// NewConfig returns a full-scale Config with the default Apache window.
func NewConfig() *Config {
	return &Config{Window: 20 * sim.Second}
}

// opts builds the runner options for one experiment, accumulating into
// rep (which may be nil).
func (c *Config) opts(rep *runner.Report) runner.Options {
	return runner.Options{
		Workers:       c.Workers,
		BaseSeed:      c.BaseSeed,
		Trace:         c.Trace,
		TraceCapacity: c.TraceCapacity,
		Report:        rep,
	}
}

// npbApps returns the NPB app list for the configured scale.
func (c *Config) npbApps() []string {
	if c.Quick {
		return []string{"cg", "ep", "lu"}
	}
	return nil // full suite
}

// parsecApps returns the PARSEC app list for the configured scale.
func (c *Config) parsecApps() []string {
	if c.Quick {
		return []string{"dedup", "streamcluster", "swaptions"}
	}
	return nil // full suite
}

// sharedNPB4 memoizes the 4-vCPU NPB sweep shared by figures 6, 9 and
// 10. The runner accounting lands in rep only for the caller that
// actually runs the sweep; reusers pay (and report) nothing.
func (c *Config) sharedNPB4(rep *runner.Report) (NPBResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.npb4 == nil {
		res, err := NPBSweep(c.opts(rep), 4, c.npbApps(), nil, nil)
		c.npb4 = &npbMemo{res: res, err: err}
	}
	return c.npb4.res, c.npb4.err
}

// sharedParsec4 memoizes the 4-vCPU PARSEC sweep shared by figures 11
// and 13.
func (c *Config) sharedParsec4(rep *runner.Report) (ParsecResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.parsec4 == nil {
		res, err := ParsecSweep(c.opts(rep), 4, c.parsecApps(), nil)
		c.parsec4 = &parsecMemo{res: res, err: err}
	}
	return c.parsec4.res, c.parsec4.err
}

// Result is one experiment's output: the rendered section body plus the
// runner accounting of the simulations it ran (nil for analytic
// experiments and for experiments that only reused another's runs).
type Result struct {
	Name string
	Text string
	// Report carries job wall clocks, derived seeds and per-run tracers
	// in submission order.
	Report *runner.Report
}

// Experiment is one registry entry. Name is the -run selector, Title
// the section header, Desc the usage line; QuickParams/FullParams
// document the two sweep scales.
type Experiment struct {
	Name        string
	Title       string
	Desc        string
	QuickParams string
	FullParams  string
	Run         func(c *Config) (Result, error)
}

// wrap builds a Result-producing closure from a render function fed by
// a fresh runner report.
func wrap(name string, f func(c *Config, rep *runner.Report) (string, error)) func(*Config) (Result, error) {
	return func(c *Config) (Result, error) {
		rep := &runner.Report{}
		text, err := f(c, rep)
		if err != nil {
			return Result{}, fmt.Errorf("%s: %w", name, err)
		}
		res := Result{Name: name, Text: text}
		if rep.Jobs > 0 {
			res.Report = rep
		}
		return res, nil
	}
}

// Registry lists every experiment in "all" execution order: the
// paper-motivation and micro pieces first, then the sweeps, then
// ablations and the §7 extension.
func Registry() []Experiment {
	return []Experiment{
		{
			Name:        "figure1",
			Title:       "Figure 1 — the three delay phenomena, quantified",
			Desc:        "spin waste, vIPI delay and I/O delay on dedicated/Xen/vScale hosts",
			QuickParams: "3 s per host",
			FullParams:  "10 s per host",
			Run: wrap("figure1", func(c *Config, rep *runner.Report) (string, error) {
				dur := 10 * sim.Second
				if c.Quick {
					dur = 3 * sim.Second
				}
				r, err := Motivation(c.opts(rep), dur)
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}),
		},
		{
			Name:        "table1",
			Title:       "Table 1 — vScale channel read overhead",
			Desc:        "analytic + in-vivo cost of one vScale channel read",
			QuickParams: "1000 daemon polls",
			FullParams:  "1000 daemon polls",
			Run: wrap("table1", func(c *Config, rep *runner.Report) (string, error) {
				r, err := Table1(1000)
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}),
		},
		{
			Name:        "figure4",
			Title:       "Figure 4 — dom0/libxl monitoring overhead",
			Desc:        "libxl VM-stats read latency vs VM count and dom0 I/O load",
			QuickParams: "500 reps",
			FullParams:  "10000 reps",
			Run: wrap("figure4", func(c *Config, rep *runner.Report) (string, error) {
				reps := 10000
				if c.Quick {
					reps = 500
				}
				return Figure4([]int{1, 10, 20, 30, 40, 50}, reps).Render(), nil
			}),
		},
		{
			Name:        "table2",
			Title:       "Table 2 — interrupt quiescence after freezing vCPU3",
			Desc:        "per-vCPU timer/IPI rates before and after a freeze",
			QuickParams: "2 s windows",
			FullParams:  "2 s windows",
			Run: wrap("table2", func(c *Config, rep *runner.Report) (string, error) {
				r, err := Table2()
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}),
		},
		{
			Name:        "table3",
			Title:       "Table 3 — freeze cost breakdown",
			Desc:        "master/target-side cost of freezing one vCPU (analytic)",
			QuickParams: "analytic",
			FullParams:  "analytic",
			Run: wrap("table3", func(c *Config, rep *runner.Report) (string, error) {
				return Table3().Render(), nil
			}),
		},
		{
			Name:        "figure5",
			Title:       "Figure 5 — Linux CPU hotplug latency",
			Desc:        "hotplug latency CDFs across four kernel versions",
			QuickParams: "30 ops/version",
			FullParams:  "100 ops/version",
			Run: wrap("figure5", func(c *Config, rep *runner.Report) (string, error) {
				reps := 100
				if c.Quick {
					reps = 30
				}
				r, err := Figure5(reps)
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}),
		},
		{
			Name:        "figure6",
			Title:       "Figure 6 — NPB normalized execution time (4-vCPU VM)",
			Desc:        "NPB apps × 4 modes × 3 spin counts, 4-vCPU VM (shared with figures 9/10)",
			QuickParams: "3 apps",
			FullParams:  "all NPB apps",
			Run: wrap("figure6", func(c *Config, rep *runner.Report) (string, error) {
				npb4, err := c.sharedNPB4(rep)
				if err != nil {
					return "", err
				}
				var sb strings.Builder
				for _, spin := range SpinCounts {
					sb.WriteString(npb4.RenderFigure(spin))
					sb.WriteString("\n")
				}
				return sb.String(), nil
			}),
		},
		{
			Name:        "figure7",
			Title:       "Figure 7 — NPB normalized execution time (8-vCPU VM)",
			Desc:        "NPB apps × 4 modes × 3 spin counts, 8-vCPU VM",
			QuickParams: "3 apps",
			FullParams:  "all NPB apps",
			Run: wrap("figure7", func(c *Config, rep *runner.Report) (string, error) {
				npb8, err := NPBSweep(c.opts(rep), 8, c.npbApps(), nil, nil)
				if err != nil {
					return "", err
				}
				var sb strings.Builder
				for _, spin := range SpinCounts {
					sb.WriteString(npb8.RenderFigure(spin))
					sb.WriteString("\n")
				}
				return sb.String(), nil
			}),
		},
		{
			Name:        "figure8",
			Title:       "Figure 8 — active vCPUs over time (bt under vScale)",
			Desc:        "active-vCPU traces of a 4- and an 8-vCPU VM running bt",
			QuickParams: "10 s trace",
			FullParams:  "10 s trace",
			Run: wrap("figure8", func(c *Config, rep *runner.Report) (string, error) {
				r, err := Figure8(c.opts(rep), 10*sim.Second)
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}),
		},
		{
			Name:        "figure9",
			Title:       "Figure 9 — VM waiting-time reduction",
			Desc:        "scheduling-delay reduction under vScale (reuses figure6's runs)",
			QuickParams: "3 apps (shared)",
			FullParams:  "all NPB apps (shared)",
			Run: wrap("figure9", func(c *Config, rep *runner.Report) (string, error) {
				npb4, err := c.sharedNPB4(rep)
				if err != nil {
					return "", err
				}
				return npb4.RenderFigure9(30_000_000_000), nil
			}),
		},
		{
			Name:        "figure10",
			Title:       "Figure 10 — NPB virtual-IPI rates",
			Desc:        "reschedule-IPI rates per spin policy (reuses figure6's runs)",
			QuickParams: "3 apps (shared)",
			FullParams:  "all NPB apps (shared)",
			Run: wrap("figure10", func(c *Config, rep *runner.Report) (string, error) {
				npb4, err := c.sharedNPB4(rep)
				if err != nil {
					return "", err
				}
				return npb4.RenderFigure10(), nil
			}),
		},
		{
			Name:        "figure11",
			Title:       "Figure 11 — PARSEC (4-vCPU VM)",
			Desc:        "PARSEC apps × 4 modes, 4-vCPU VM (shared with figure 13)",
			QuickParams: "3 apps",
			FullParams:  "all PARSEC apps",
			Run: wrap("figure11", func(c *Config, rep *runner.Report) (string, error) {
				p4, err := c.sharedParsec4(rep)
				if err != nil {
					return "", err
				}
				return p4.RenderFigure(), nil
			}),
		},
		{
			Name:        "figure12",
			Title:       "Figure 12 — PARSEC (8-vCPU VM)",
			Desc:        "PARSEC apps × 4 modes, 8-vCPU VM",
			QuickParams: "3 apps",
			FullParams:  "all PARSEC apps",
			Run: wrap("figure12", func(c *Config, rep *runner.Report) (string, error) {
				p8, err := ParsecSweep(c.opts(rep), 8, c.parsecApps(), nil)
				if err != nil {
					return "", err
				}
				return p8.RenderFigure(), nil
			}),
		},
		{
			Name:        "figure13",
			Title:       "Figure 13 — PARSEC virtual-IPI rates",
			Desc:        "per-app IPI rates on the baseline (reuses figure11's runs)",
			QuickParams: "3 apps (shared)",
			FullParams:  "all PARSEC apps (shared)",
			Run: wrap("figure13", func(c *Config, rep *runner.Report) (string, error) {
				p4, err := c.sharedParsec4(rep)
				if err != nil {
					return "", err
				}
				return p4.RenderFigure13(), nil
			}),
		},
		{
			Name:        "figure14",
			Title:       "Figure 14 — Apache web server",
			Desc:        "reply rate / connection time / response time vs offered load",
			QuickParams: "5 rates",
			FullParams:  "11 rates",
			Run: wrap("figure14", func(c *Config, rep *runner.Report) (string, error) {
				rates := []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
				if c.Quick {
					rates = []float64{2, 4, 6, 8, 10}
				}
				window := c.Window
				if window <= 0 {
					window = 20 * sim.Second
				}
				r, err := Apache(c.opts(rep), rates, window, nil)
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}),
		},
		{
			Name:        "ablations",
			Title:       "Ablations — design-choice benches (DESIGN.md A1-A5)",
			Desc:        "weight-only sizing, hotplug path, daemon period, per-VM weight, ceil margin, scheduler generality",
			QuickParams: "6 ablations on cg",
			FullParams:  "6 ablations on cg",
			Run: wrap("ablations", func(c *Config, rep *runner.Report) (string, error) {
				var sb strings.Builder
				for _, abl := range []func() (AblationResult, error){
					func() (AblationResult, error) { return AblationWeightOnly(c.opts(rep), "cg") },
					func() (AblationResult, error) { return AblationHotplugPath(c.opts(rep), "cg") },
					func() (AblationResult, error) { return AblationDaemonPeriod(c.opts(rep), "cg", nil) },
					func() (AblationResult, error) { return AblationPerVMWeight(c.opts(rep), "cg") },
					func() (AblationResult, error) { return AblationCeilMargin(c.opts(rep), "cg") },
					func() (AblationResult, error) { return AblationSchedulerGenerality(c.opts(rep), "cg") },
				} {
					r, err := abl()
					if err != nil {
						return "", err
					}
					if sb.Len() > 0 {
						sb.WriteString("\n")
					}
					sb.WriteString(r.Render())
				}
				return sb.String(), nil
			}),
		},
		{
			Name:        "cluster",
			Title:       "Cluster — multi-host fleet under VM churn (scaling-policy shoot-out)",
			Desc:        "open-loop web load with VM arrivals/departures; reply-latency quantiles, SLO attainment and provisioned cost per registered scaling policy",
			QuickParams: "2 hosts, 8 s churn",
			FullParams:  "2 and 4 hosts, 16 s churn",
			Run: wrap("cluster", func(c *Config, rep *runner.Report) (string, error) {
				hostCounts := []int{2, 4}
				horizon := 16 * sim.Second
				if c.Quick {
					hostCounts = []int{2}
					horizon = 8 * sim.Second
				}
				warm := ClusterWarm{
					Epochs:         c.WarmEpochs,
					Fork:           c.WarmFork,
					CheckpointPath: c.CheckpointPath,
					RestorePath:    c.RestorePath,
				}
				r, err := Cluster(c.opts(rep), c.Telemetry, hostCounts, 4, horizon, 50*sim.Millisecond, c.Policies, c.Elastic, warm)
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}),
		},
		{
			Name:        "warmfork",
			Title:       "Warm-fork — simulate the warm prefix once, fork every policy",
			Desc:        "per-policy straight runs vs one shared warm-prefix snapshot forked per policy; results must match bit for bit",
			QuickParams: "2 hosts, 20 epochs (16 warm) × all policies",
			FullParams:  "2 hosts, 40 epochs (32 warm) × all policies",
			Run: wrap("warmfork", func(c *Config, rep *runner.Report) (string, error) {
				horizon := 20 * sim.Second
				warmEpochs := 32
				if c.Quick {
					horizon = 10 * sim.Second
					warmEpochs = 16
				}
				if c.WarmEpochs > 0 {
					warmEpochs = c.WarmEpochs
				}
				r, err := WarmFork(c.opts(rep), 2, 4, horizon, 50*sim.Millisecond,
					warmEpochs, c.Policies)
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}),
		},
		{
			Name:        "bakeoff",
			Title:       "Bake-off — vertical vs horizontal vs hybrid elasticity",
			Desc:        "vScale vCPU scaling vs live migration + replica autoscaling vs both, forked from one warm snapshot of one service-annotated trace; cost-vs-attainment per arm",
			QuickParams: "4 hosts, 16 s churn (8 warm epochs)",
			FullParams:  "4 hosts, 16 s churn (8 warm epochs)",
			Run: wrap("bakeoff", func(c *Config, rep *runner.Report) (string, error) {
				// Same size under -quick: the bake-off's verdict needs the
				// full horizon (a shorter trace never reaches the overload
				// that separates the arms).
				horizon := 16 * sim.Second
				warmEpochs := 8
				if c.WarmEpochs > 0 {
					warmEpochs = c.WarmEpochs
				}
				r, err := Bakeoff(c.opts(rep), c.Telemetry, 4, 4, horizon, 50*sim.Millisecond,
					warmEpochs)
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}),
		},
		{
			Name:        "extension",
			Title:       "Extension — §7 future work: vScale-aware adaptive OpenMP teams",
			Desc:        "fixed vs active-vCPU-adaptive OpenMP team under vScale",
			QuickParams: "cg, 2 runs",
			FullParams:  "cg, 2 runs",
			Run: wrap("extension", func(c *Config, rep *runner.Report) (string, error) {
				r, err := ExtensionAdaptiveTeam(c.opts(rep), "cg")
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}),
		},
	}
}

// Names lists the registry selectors in "all" order.
func Names() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.Name)
	}
	return out
}

// Find returns the experiment registered under name.
func Find(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
