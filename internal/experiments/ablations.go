package experiments

import (
	"fmt"

	"vscale/internal/costmodel"
	"vscale/internal/guest"
	"vscale/internal/report"
	"vscale/internal/runner"
	"vscale/internal/scenario"
	"vscale/internal/sim"
	"vscale/internal/trace"
	"vscale/internal/workload"
	"vscale/internal/workload/npb"
	"vscale/internal/xen"
)

// AblationResult compares execution times of one NPB app across design
// variants of vScale.
type AblationResult struct {
	Name     string
	App      string
	Variants []string
	Exec     []sim.Time
	Wait     []sim.Time
}

// Render produces the ablation table.
func (r AblationResult) Render() string {
	t := report.NewTable(fmt.Sprintf("Ablation %s (%s)", r.Name, r.App),
		"variant", "exec (s)", "VM wait (s)")
	for i, v := range r.Variants {
		t.AddRow(v, fmt.Sprintf("%.2f", r.Exec[i].Seconds()), fmt.Sprintf("%.2f", r.Wait[i].Seconds()))
	}
	return t.String()
}

func runVariant(app string, spin uint64, mod func(*scenario.Setup), tr *trace.Tracer) (sim.Time, sim.Time, error) {
	s := scenario.DefaultSetup()
	s.Mode = scenario.VScale
	if mod != nil {
		mod(&s)
	}
	s.Tracer = tr
	b := scenario.Build(s)
	p, err := npb.ProfileFor(app)
	if err != nil {
		return 0, 0, err
	}
	res, err := b.RunApp(func(k *guest.Kernel) *workload.App {
		return npb.Launch(k, p, s.VMVCPUs, guest.SpinBudgetFromCount(spin))
	}, 600*sim.Second)
	if err != nil {
		return 0, 0, err
	}
	return res.ExecTime, res.WaitTime, nil
}

// variant is one row of an ablation table.
type variant struct {
	name string
	mod  func(*scenario.Setup)
}

// ablate runs the variants of one ablation as parallel jobs, collecting
// the rows in variant order.
func ablate(opts runner.Options, name, app string, spin uint64, vars []variant) (AblationResult, error) {
	r := AblationResult{Name: name, App: app}
	type row struct{ exec, wait sim.Time }
	rows, err := runner.Run(opts, len(vars), func(ctx runner.Context) (row, error) {
		e, w, err := runVariant(app, spin, vars[ctx.Index].mod, ctx.Tracer)
		return row{e, w}, err
	})
	if err != nil {
		return AblationResult{}, err
	}
	for i, v := range vars {
		r.Variants = append(r.Variants, v.name)
		r.Exec = append(r.Exec, rows[i].exec)
		r.Wait = append(r.Wait, rows[i].wait)
	}
	return r, nil
}

// AblationWeightOnly (A1): vScale's consumption-aware extendability vs
// the VCPU-Bal weight-only sizing. The comparison runs with a light
// background, slideshows at a ~20% duty cycle: weight-only sizing pins
// the VM to its weight-based fair share even when the machine is mostly
// idle, forfeiting the slack that work-conserving schedulers would hand
// out.
func AblationWeightOnly(opts runner.Options, app string) (AblationResult, error) {
	show := workload.DefaultSlideshow()
	show.IdleMin, show.IdleMax = 3*show.BurstMin, 5*show.BurstMax
	light := func(s *scenario.Setup) { s.Background = &show }
	return ablate(opts, "A1: consumption-aware vs weight-only sizing (light background)", app, 30_000_000_000,
		[]variant{
			{"vScale (consumption-aware)", light},
			{"VCPU-Bal (weight-only)", func(s *scenario.Setup) { light(s); s.WeightOnly = true }},
			{"Xen/Linux (fixed vCPUs)", func(s *scenario.Setup) { light(s); s.Mode = scenario.Baseline }},
		})
}

// AblationHotplugPath (A2): the vScale balancer (µs) vs dom0-driven CPU
// hotplug (ms to 100+ ms) as the reconfiguration mechanism. The
// comparison uses fast-flickering background VMs (pictures every few
// hundred ms): a reconfiguration knob slower than the load's time
// constant cannot track it, which is exactly why VCPU-Bal could only
// simulate dynamic vCPUs.
func AblationHotplugPath(opts runner.Options, app string) (AblationResult, error) {
	flicker := &workload.Slideshow{
		BurstMin: 100 * sim.Millisecond, BurstMax: 250 * sim.Millisecond,
		IdleMin: 80 * sim.Millisecond, IdleMax: 200 * sim.Millisecond,
	}
	fast := func(s *scenario.Setup) { s.Background = flicker }
	model, ok := costmodel.HotplugModelFor("v-2.6.32")
	if !ok {
		return AblationResult{}, fmt.Errorf("no hotplug model for v-2.6.32")
	}
	return ablate(opts, "A2: vScale balancer vs CPU-hotplug reconfiguration (fast-changing load)", app, 30_000_000_000,
		[]variant{
			{"vScale balancer (µs)", fast},
			{"dom0 hotplug path (ms-100ms)", func(s *scenario.Setup) {
				fast(s)
				s.ReconfigDelay = func(rand *sim.Rand) sim.Time {
					return costmodel.XenStoreWrite + model.DrawDown(rand)
				}
			}},
		})
}

// AblationDaemonPeriod (A3): sensitivity to the daemon poll period.
func AblationDaemonPeriod(opts runner.Options, app string, periods []sim.Time) (AblationResult, error) {
	if periods == nil {
		periods = []sim.Time{sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond, sim.Second}
	}
	var vars []variant
	for _, p := range periods {
		p := p
		vars = append(vars, variant{fmt.Sprintf("period %v", p),
			func(s *scenario.Setup) { s.DaemonPeriod = p }})
	}
	return ablate(opts, "A3: daemon period sensitivity", app, 30_000_000_000, vars)
}

// AblationPerVMWeight (A4): the paper's per-VM weight patch vs unpatched
// Xen's per-vCPU weights, which make a VM forfeit share when freezing.
func AblationPerVMWeight(opts runner.Options, app string) (AblationResult, error) {
	return ablate(opts, "A4: per-VM weight (vScale patch) vs per-vCPU weight (unpatched)", app, 30_000_000_000,
		[]variant{
			{"per-VM weight", nil},
			{"per-vCPU weight", func(s *scenario.Setup) { s.PerVCPUWeight = true }},
		})
}

// AblationSchedulerGenerality (A6): the paper claims Algorithm 1 "can be
// easily integrated into various proportional-share schedulers, such as
// the virtual-runtime based ones". This ablation runs the identical
// vScale stack on the credit scheduler and on the VRT scheduler; the
// speedup over each scheduler's own baseline should hold for both.
func AblationSchedulerGenerality(opts runner.Options, app string) (AblationResult, error) {
	var vars []variant
	for _, pol := range []xen.SchedPolicy{xen.PolicyCredit, xen.PolicyVRT} {
		for _, mode := range []scenario.Mode{scenario.Baseline, scenario.VScale} {
			pol, mode := pol, mode
			polName := "credit"
			if pol == xen.PolicyVRT {
				polName = "vrt"
			}
			vars = append(vars, variant{fmt.Sprintf("%s: %s", polName, mode),
				func(s *scenario.Setup) {
					s.Policy = pol
					s.Mode = mode
				}})
		}
	}
	return ablate(opts, "A6: vScale on credit vs virtual-runtime scheduling", app, 30_000_000_000, vars)
}

// AblationCeilMargin (A5): the governor's fragmentation margin vs the
// paper's pure ceiling.
func AblationCeilMargin(opts runner.Options, app string) (AblationResult, error) {
	return ablate(opts, "A5: sizing ceiling: fragmentation margin vs pure ceil", app, 30_000_000_000,
		[]variant{
			{"margin 0.55 (default)", nil},
			{"pure ceil (Algorithm 1)", func(s *scenario.Setup) { s.PureCeil = true }},
		})
}
