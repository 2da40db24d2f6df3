package experiments

import (
	"fmt"

	"vscale/internal/guest"
	"vscale/internal/report"
	"vscale/internal/runner"
	"vscale/internal/scenario"
	"vscale/internal/sim"
	"vscale/internal/trace"
	"vscale/internal/workload"
	"vscale/internal/workload/npb"
)

// SpinCounts are the three GOMP_SPINCOUNT settings of Figures 6 and 7:
// OMP_WAIT_POLICY=ACTIVE (30 billion), default (300 K) and PASSIVE (0).
var SpinCounts = []uint64{30_000_000_000, 300_000, 0}

// SpinLabel names a spin count the way the paper does.
func SpinLabel(spin uint64) string {
	switch spin {
	case 30_000_000_000:
		return "30B"
	case 300_000:
		return "300K"
	case 0:
		return "0"
	default:
		return fmt.Sprint(spin)
	}
}

// NPBRun is one (app, mode, spin) measurement.
type NPBRun struct {
	App      string
	Mode     scenario.Mode
	Spin     uint64
	Exec     sim.Time
	Wait     sim.Time
	IPIRate  float64
	AvgVCPUs float64
}

// NPBResult holds a full NPB sweep (Figure 6 for a 4-vCPU VM, Figure 7
// for an 8-vCPU VM), with Figures 9 and 10 derivable from the same runs.
type NPBResult struct {
	VMVCPUs int
	Apps    []string
	Runs    map[string]map[scenario.Mode]map[uint64]NPBRun
}

// runNPBOnce executes one configuration. It also returns the finished
// scenario, whose engine accounting the pinned-cell test reads.
func runNPBOnce(app string, mode scenario.Mode, spin uint64, vcpus int, seed uint64, tr *trace.Tracer) (NPBRun, *scenario.Built, error) {
	s := scenario.DefaultSetup()
	s.Mode = mode
	s.VMVCPUs = vcpus
	s.Seed = seed
	s.Tracer = tr
	b := scenario.Build(s)
	p, err := npb.ProfileFor(app)
	if err != nil {
		return NPBRun{}, nil, err
	}
	res, err := b.RunApp(func(k *guest.Kernel) *workload.App {
		return npb.Launch(k, p, vcpus, guest.SpinBudgetFromCount(spin))
	}, 600*sim.Second)
	if err != nil {
		return NPBRun{}, nil, err
	}
	return NPBRun{
		App: app, Mode: mode, Spin: spin,
		Exec: res.ExecTime, Wait: res.WaitTime,
		IPIRate: res.IPIsPerVCPUSec, AvgVCPUs: res.AvgActiveVCPUs,
	}, b, nil
}

// NPBSweep runs apps × modes × spin counts on a VM with the given vCPU
// count, fanning the independent configurations across the runner's
// worker pool. Passing nil lists selects the full paper sweep. Every
// configuration keeps the historical fixed seed so the rendered tables
// match the archived EXPERIMENTS.md numbers whatever the worker count.
func NPBSweep(opts runner.Options, vcpus int, apps []string, modes []scenario.Mode, spins []uint64) (NPBResult, error) {
	if apps == nil {
		apps = npb.Names()
	}
	if modes == nil {
		modes = scenario.Modes()
	}
	if spins == nil {
		spins = SpinCounts
	}
	type cell struct {
		app  string
		mode scenario.Mode
		spin uint64
	}
	var cells []cell
	for _, app := range apps {
		for _, m := range modes {
			for _, spin := range spins {
				cells = append(cells, cell{app, m, spin})
			}
		}
	}
	runs, err := runner.Run(opts, len(cells), func(ctx runner.Context) (NPBRun, error) {
		c := cells[ctx.Index]
		run, _, err := runNPBOnce(c.app, c.mode, c.spin, vcpus, 1, ctx.Tracer)
		return run, err
	})
	if err != nil {
		return NPBResult{}, err
	}
	out := NPBResult{VMVCPUs: vcpus, Apps: apps,
		Runs: make(map[string]map[scenario.Mode]map[uint64]NPBRun)}
	for i, c := range cells {
		if out.Runs[c.app] == nil {
			out.Runs[c.app] = make(map[scenario.Mode]map[uint64]NPBRun)
		}
		if out.Runs[c.app][c.mode] == nil {
			out.Runs[c.app][c.mode] = make(map[uint64]NPBRun)
		}
		out.Runs[c.app][c.mode][c.spin] = runs[i]
	}
	return out, nil
}

// Normalized returns exec(app, mode, spin)/exec(app, Baseline, spin).
func (r NPBResult) Normalized(app string, mode scenario.Mode, spin uint64) float64 {
	base := r.Runs[app][scenario.Baseline][spin].Exec
	if base == 0 {
		return 0
	}
	return float64(r.Runs[app][mode][spin].Exec) / float64(base)
}

// RenderFigure produces the Figure 6/7 table for one spin count:
// normalized execution times for the four configurations.
func (r NPBResult) RenderFigure(spin uint64) string {
	fig := "Figure 6"
	if r.VMVCPUs == 8 {
		fig = "Figure 7"
	}
	t := report.NewTable(
		fmt.Sprintf("%s: NPB normalized execution time, %d-vCPU VM, GOMP_SPINCOUNT=%s",
			fig, r.VMVCPUs, SpinLabel(spin)),
		"app", "Xen/Linux", "vScale", "Xen/Linux+pvlock", "vScale+pvlock")
	for _, app := range r.Apps {
		t.AddRow(app,
			fmt.Sprintf("%.2f", r.Normalized(app, scenario.Baseline, spin)),
			fmt.Sprintf("%.2f", r.Normalized(app, scenario.VScale, spin)),
			fmt.Sprintf("%.2f", r.Normalized(app, scenario.PVLock, spin)),
			fmt.Sprintf("%.2f", r.Normalized(app, scenario.VScalePVLock, spin)))
	}
	return t.String()
}

// RenderFigure9 produces the waiting-time-reduction table (Figure 9):
// percentage reduction of the VM's scheduling delay under vScale,
// normalised per unit of execution time, with and without pv-spinlock.
func (r NPBResult) RenderFigure9(spin uint64) string {
	t := report.NewTable(
		fmt.Sprintf("Figure 9: reduction of VM waiting time with vScale (spin=%s)", SpinLabel(spin)),
		"app", "vScale vs Xen/Linux (%)", "vScale+pvlock vs Xen/Linux+pvlock (%)")
	red := func(base, vs NPBRun) float64 {
		b := float64(base.Wait) / float64(base.Exec)
		v := float64(vs.Wait) / float64(vs.Exec)
		if b == 0 {
			return 0
		}
		return (1 - v/b) * 100
	}
	for _, app := range r.Apps {
		t.AddRow(app,
			fmt.Sprintf("%.1f", red(r.Runs[app][scenario.Baseline][spin], r.Runs[app][scenario.VScale][spin])),
			fmt.Sprintf("%.1f", red(r.Runs[app][scenario.PVLock][spin], r.Runs[app][scenario.VScalePVLock][spin])))
	}
	return t.String()
}

// RenderFigure10 produces the IPI-rate table (Figure 10): reschedule
// IPIs per vCPU per second on vanilla Xen/Linux under the three spin
// policies.
func (r NPBResult) RenderFigure10() string {
	t := report.NewTable(
		"Figure 10: vIPIs/sec/vCPU under different spinning policies (Xen/Linux)",
		"app", "spin=30B", "spin=300K", "spin=0")
	for _, app := range r.Apps {
		row := []string{app}
		for _, spin := range SpinCounts {
			row = append(row, fmt.Sprintf("%.1f", r.Runs[app][scenario.Baseline][spin].IPIRate))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Figure8Result is the active-vCPU trace for bt (paper Figure 8).
type Figure8Result struct {
	Traces map[int][]guest.TracePoint // keyed by VM vCPU count (4, 8)
}

// Figure8 records the active-vCPU traces of a 4- and an 8-vCPU VM
// running bt under vScale; the two VMs run as parallel jobs.
func Figure8(opts runner.Options, duration sim.Time) (Figure8Result, error) {
	sizes := []int{4, 8}
	traces, err := runner.Run(opts, len(sizes), func(ctx runner.Context) ([]guest.TracePoint, error) {
		vcpus := sizes[ctx.Index]
		s := scenario.DefaultSetup()
		s.Mode = scenario.VScale
		s.VMVCPUs = vcpus
		s.Tracer = ctx.Tracer
		b := scenario.Build(s)
		b.K.StartTrace(100 * sim.Millisecond)
		p, err := npb.ProfileFor("bt")
		if err != nil {
			return nil, err
		}
		if _, err := b.RunApp(func(k *guest.Kernel) *workload.App {
			return npb.Launch(k, p, vcpus, guest.SpinBudgetFromCount(300_000))
		}, duration); err != nil {
			return nil, err
		}
		return b.K.Trace(), nil
	})
	if err != nil {
		return Figure8Result{}, err
	}
	out := Figure8Result{Traces: make(map[int][]guest.TracePoint)}
	for i, vcpus := range sizes {
		out.Traces[vcpus] = traces[i]
	}
	return out, nil
}

// Render produces the Figure 8 trace table.
func (r Figure8Result) Render() string {
	t := report.NewTable("Figure 8: active vCPUs over time, bt under vScale",
		"t (s)", "4-vCPU VM", "8-vCPU VM")
	t4, t8 := r.Traces[4], r.Traces[8]
	n := len(t4)
	if len(t8) < n {
		n = len(t8)
	}
	for i := 0; i < n; i++ {
		t.AddRow(fmt.Sprintf("%.1f", t4[i].At.Seconds()),
			fmt.Sprintf("%d %s", t4[i].Active, report.Bar(float64(t4[i].Active), 8, 8)),
			fmt.Sprintf("%d %s", t8[i].Active, report.Bar(float64(t8[i].Active), 8, 8)))
	}
	return t.String()
}
