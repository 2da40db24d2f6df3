package experiments

import (
	"fmt"

	"vscale/internal/guest"
	"vscale/internal/report"
	"vscale/internal/runner"
	"vscale/internal/scenario"
	"vscale/internal/sim"
	"vscale/internal/workload"
)

// MotivationResult quantifies the three delay phenomena of the paper's
// Figure 1 on the simulated substrate, comparing a dedicated host, the
// consolidated baseline, and vScale:
//
//	(a) CPU time wasted busy-waiting on preempted peers,
//	(b) virtual-IPI delivery latency (blocking synchronisation),
//	(c) I/O-interrupt delivery latency.
type MotivationResult struct {
	// SpinWasteFrac is (a): user-level spin time as a fraction of the
	// VM's consumed CPU, per configuration.
	SpinWasteFrac map[string]float64
	// IPIDelayUs is (b): {p50, p99, max} of IPI delivery latency in µs.
	IPIDelayUs map[string][3]float64
	// IRQDelayUs is (c): {p50, p99, max} of device-interrupt delivery
	// latency in µs.
	IRQDelayUs map[string][3]float64
}

// motivationConfigs names the three hosts compared.
var motivationConfigs = []string{"dedicated", "Xen/Linux", "vScale"}

// Motivation runs one synchronisation+I/O workload under the three
// hosts (as parallel jobs) and extracts the Figure 1 quantities.
func Motivation(opts runner.Options, duration sim.Time) (MotivationResult, error) {
	type row struct {
		spin float64
		ipi  [3]float64
		irq  [3]float64
	}
	rows, err := runner.Run(opts, len(motivationConfigs), func(ctx runner.Context) (row, error) {
		cfgName := motivationConfigs[ctx.Index]
		s := scenario.DefaultSetup()
		switch cfgName {
		case "dedicated":
			s.Mode = scenario.Baseline
			s.NoBackground = true
		case "Xen/Linux":
			s.Mode = scenario.Baseline
		case "vScale":
			s.Mode = scenario.VScale
		}
		s.Tracer = ctx.Tracer
		b := scenario.Build(s)
		k := b.K

		// The probe keeps all four vCPUs busy with a spin-synchronised
		// ring — like a barrier-bound OpenMP team — so that (a) any
		// preemption turns directly into peer spinning, and (b)/(c)
		// wakeup IPIs and device interrupts target vCPUs that are
		// *runnable, not blocked*, which is exactly the delayed-delivery
		// situation of Figure 1. A balanced ring has little intrinsic
		// spin on a dedicated host, so the measured spin is the
		// preemption-induced waste.
		app := workload.NewApp(k, "motivation")
		ring := make([]*guest.SpinVar, 4)
		for i := range ring {
			ring[i] = k.NewSpinVar()
		}
		for th := 0; th < 4; th++ {
			pred, own := ring[(th+3)%4], ring[th]
			app.Go(fmt.Sprintf("ring.%d", th), &workload.RandLoop{Forever: true, Body: func(i int, ops *workload.Ops) {
				ops.RandCompute(900*sim.Microsecond, 1100*sim.Microsecond)
				if th != 0 {
					ops.Do(guest.SpinWait(pred, uint64(i+1)))
				} else if i > 0 {
					ops.Do(guest.SpinWait(pred, uint64(i)))
				}
				ops.Do(guest.SpinSet(own))
			}})
		}
		// Futex ping-pong: the wakeups land on busy vCPUs, so their IPIs
		// pend whenever the hypervisor has the target descheduled.
		pq := k.NewWaitQueue(0)
		app.Go("pong", &workload.RandLoop{Forever: true, Body: func(_ int, ops *workload.Ops) {
			ops.Do(guest.Dequeue(pq), guest.Compute(200*sim.Microsecond))
		}})
		app.Go("ping", &workload.RandLoop{Forever: true, Body: func(i int, ops *workload.Ops) {
			ops.Do(guest.Compute(sim.Millisecond), guest.Enqueue(pq, i))
		}})
		dev := k.NewDevice("blk", 0, 10*sim.Microsecond)
		app.Go("io", &workload.RandLoop{Forever: true, Body: func(_ int, ops *workload.Ops) {
			ops.Do(guest.IO(dev, 2*sim.Millisecond), guest.Compute(200*sim.Microsecond))
		}})

		if err := b.Eng.RunUntil(duration); err != nil {
			return row{}, err
		}
		b.FinishTrace()

		var out row
		var spin, run sim.Time
		for i := 0; i < k.NCPUs(); i++ {
			spin += k.CPUStatsOf(i).UserSpinTime
		}
		run = b.VM.TotalRunTime
		if run > 0 {
			out.spin = float64(spin) / float64(run)
		}
		out.ipi = [3]float64{
			b.VM.IPIDelay.Quantile(0.5), b.VM.IPIDelay.Quantile(0.99), b.VM.IPIDelay.Max(),
		}
		out.irq = [3]float64{
			b.VM.IRQDelay.Quantile(0.5), b.VM.IRQDelay.Quantile(0.99), b.VM.IRQDelay.Max(),
		}
		return out, nil
	})
	if err != nil {
		return MotivationResult{}, err
	}
	res := MotivationResult{
		SpinWasteFrac: make(map[string]float64),
		IPIDelayUs:    make(map[string][3]float64),
		IRQDelayUs:    make(map[string][3]float64),
	}
	for i, cfgName := range motivationConfigs {
		res.SpinWasteFrac[cfgName] = rows[i].spin
		res.IPIDelayUs[cfgName] = rows[i].ipi
		res.IRQDelayUs[cfgName] = rows[i].irq
	}
	return res, nil
}

// Render produces the Figure 1 quantification table.
func (r MotivationResult) Render() string {
	t := report.NewTable("Figure 1 (quantified): the three scheduling-delay phenomena",
		"host", "(a) spin waste", "(b) vIPI delay p50/p99/max (µs)", "(c) I/O delay p50/p99/max (µs)")
	for _, c := range motivationConfigs {
		ipi := r.IPIDelayUs[c]
		irq := r.IRQDelayUs[c]
		t.AddRow(c,
			fmt.Sprintf("%.1f%%", r.SpinWasteFrac[c]*100),
			fmt.Sprintf("%.0f / %.0f / %.0f", ipi[0], ipi[1], ipi[2]),
			fmt.Sprintf("%.0f / %.0f / %.0f", irq[0], irq[1], irq[2]))
	}
	return t.String()
}
