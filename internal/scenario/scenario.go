// Package scenario assembles the paper's experimental setups: a pCPU
// pool, the SMP-VM under test, and enough photo-slideshow background VMs
// to keep the consolidation ratio at 2 vCPUs per pCPU (§5.2.1), under
// one of the four configurations compared throughout §5.2 — vanilla
// Xen/Linux, Xen/Linux with pv-spinlocks, vScale, and vScale with
// pv-spinlocks.
package scenario

import (
	"fmt"

	"vscale/internal/guest"
	"vscale/internal/sim"
	"vscale/internal/trace"
	"vscale/internal/workload"
	"vscale/internal/xen"
)

// Mode selects one of the paper's four configurations.
type Mode int

// The four configurations of Figures 6, 7, 11, 12 and 14.
const (
	// Baseline is vanilla Xen/Linux.
	Baseline Mode = iota
	// PVLock adds paravirtual ticket spinlocks in the guest.
	PVLock
	// VScale enables the vScale daemon/balancer and the hypervisor
	// extension.
	VScale
	// VScalePVLock combines both (they compose, working at different
	// layers).
	VScalePVLock
)

func (m Mode) String() string {
	switch m {
	case Baseline:
		return "Xen/Linux"
	case PVLock:
		return "Xen/Linux + pvlock"
	case VScale:
		return "vScale"
	case VScalePVLock:
		return "vScale + pvlock"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Modes lists all four configurations in figure order.
func Modes() []Mode { return []Mode{Baseline, PVLock, VScale, VScalePVLock} }

// Setup describes one experiment host.
type Setup struct {
	// PCPUs is the domU pool size (the paper's testbed gives domUs a
	// dedicated pool; dom0 runs elsewhere).
	PCPUs int
	// VMVCPUs is the vCPU count of the VM under test.
	VMVCPUs int
	// Mode is the configuration under test.
	Mode Mode
	// Policy selects the hypervisor scheduling policy (credit default;
	// the VRT policy demonstrates that vScale is scheduler-agnostic —
	// ablation A6).
	Policy xen.SchedPolicy
	// Seed drives all randomness.
	Seed uint64

	// WeightOnly makes the daemon size the VM from its weight-based fair
	// share only, ignoring consumption — the VCPU-Bal policy (ablation
	// A1).
	WeightOnly bool
	// ReconfigDelay, when non-nil, delays every freeze/unfreeze by the
	// sampled latency — the dom0/CPU-hotplug reconfiguration path
	// (ablation A2).
	ReconfigDelay func(r *sim.Rand) sim.Time
	// PerVCPUWeight reverts the hypervisor to unpatched per-vCPU weight
	// accounting (ablation A4).
	PerVCPUWeight bool
	// DaemonPeriod overrides the daemon poll period (ablation A3).
	DaemonPeriod sim.Time
	// PureCeil uses Algorithm 1's pure ceiling instead of the default
	// fragmentation margin when sizing the VM (ablation A5).
	PureCeil bool
	// NoBackground disables the slideshow VMs entirely (dedicated host).
	NoBackground bool
	// Background, when non-nil, overrides the slideshow profile of the
	// background VMs entirely.
	Background *workload.Slideshow

	// Tracer, when non-nil, receives trace records from all three layers
	// (sim engine dispatches, hypervisor scheduling, guest kernel). It is
	// the only tracing hook: there is no package-level default, so
	// concurrent scenario runs (internal/runner) can never share a
	// collector by accident. Give each run its own Tracer and combine
	// them afterwards with trace.Merge. Tracing is purely observational:
	// enabling it never changes simulation results.
	Tracer *trace.Tracer
}

// DefaultSetup returns the paper-like configuration: 8 pool pCPUs, a
// 4-vCPU VM, 2:1 consolidation.
func DefaultSetup() Setup {
	return Setup{
		PCPUs:   8,
		VMVCPUs: 4,
		Mode:    Baseline,
		Seed:    1,
	}
}

// ConsolidationRatio is the vCPUs per pCPU that Build fills a host up
// to with 2-vCPU slideshow VMs (the paper's 2:1, §5.2.1), unless
// Setup.NoBackground is set.
const ConsolidationRatio = 2

// Built is an assembled scenario ready to run workloads on.
type Built struct {
	Setup  Setup
	Eng    *sim.Engine
	Pool   *xen.Pool
	VM     *xen.Domain
	K      *guest.Kernel
	BG     []*guest.Kernel
	Tracer *trace.Tracer // nil when tracing is disabled
}

// DefaultWarmup is the warm-up window run before a measured request
// window in the single-host HTTP scenarios: long enough for the guest
// to boot, the scheduler to settle and the server to reach steady
// state, short enough not to dominate a run. Shared by every driver
// that warms an httpd scenario (Figure 14, the vscalesim httpd
// workload) so "warm" means the same thing everywhere.
const DefaultWarmup = 2 * sim.Second

// WeightPerVCPU is the credit-scheduler weight granted per vCPU: a
// domain's weight is proportional to its vCPU count, so the hypervisor
// treats all vCPUs equally (the paper's weight configuration). Shared
// by every scenario builder, including the cluster control plane, so
// placement's extendability probes use the same weight scale the hosts
// schedule with.
const WeightPerVCPU = 128.0

// Build assembles the host, VM under test and background VMs. Guests are
// booted; the scheduler is started.
func Build(s Setup) *Built {
	if s.PCPUs <= 0 || s.VMVCPUs <= 0 || s.VMVCPUs > guest.MaxVCPUs {
		panic(fmt.Sprintf("scenario: need PCPUs > 0 and VMVCPUs in 1..%d", guest.MaxVCPUs))
	}
	eng := sim.NewEngine(s.Seed)
	tr := s.Tracer
	if tr != nil {
		eng.SetObserver(tr.SimEvent)
	}
	xcfg := xen.DefaultConfig(s.PCPUs)
	xcfg.Policy = s.Policy
	xcfg.PerVCPUWeight = s.PerVCPUWeight
	pool := xen.NewPool(eng, xcfg)
	pool.SetTracer(tr)

	vm := pool.AddDomain("vm", WeightPerVCPU*float64(s.VMVCPUs), s.VMVCPUs, nil)

	gcfg := guest.DefaultConfig()
	gcfg.Seed = s.Seed * 7919
	gcfg.PVSpinlock = s.Mode == PVLock || s.Mode == VScalePVLock
	if s.DaemonPeriod > 0 {
		gcfg.VScale.Period = s.DaemonPeriod
	}
	gcfg.VScale.WeightOnly = s.WeightOnly
	if s.PureCeil {
		gcfg.VScale.CeilMargin = 0
	}
	k := guest.NewKernel(vm, gcfg)
	k.SpawnPerCPUKthreads()

	b := &Built{Setup: s, Eng: eng, Pool: pool, VM: vm, K: k, Tracer: tr}

	nbg := 0
	if !s.NoBackground {
		nbg = max((ConsolidationRatio*s.PCPUs-s.VMVCPUs)/2, 0)
	}
	show := workload.DefaultSlideshow()
	if s.Background != nil {
		show = *s.Background
	}
	for i := 0; i < nbg; i++ {
		dom := pool.AddDomain(fmt.Sprintf("bg%d", i), WeightPerVCPU*2, 2, nil)
		bcfg := guest.DefaultConfig()
		bcfg.Seed = s.Seed*104729 + uint64(i)*31
		bk := guest.NewKernel(dom, bcfg)
		app := workload.NewApp(bk, "slideshow")
		show.Start(app)
		bk.Boot()
		b.BG = append(b.BG, bk)
	}

	if s.Mode == VScale || s.Mode == VScalePVLock {
		pool.EnableVScale()
		k.SetReconfigDelay(s.ReconfigDelay)
		k.StartVScaleDaemon()
	}
	pool.Start()
	k.Boot()
	return b
}

// AppResult captures the per-run metrics the paper reports.
type AppResult struct {
	Mode     Mode
	ExecTime sim.Time
	// WaitTime is the VM's total scheduling delay accumulated during the
	// run (Figure 9's metric).
	WaitTime sim.Time
	// IPIsPerVCPUSec is the mean reschedule-IPI delivery rate per vCPU
	// (Figures 10 and 13).
	IPIsPerVCPUSec float64
	// AvgActiveVCPUs is the time-weighted active-vCPU count (Figure 8's
	// aggregate).
	AvgActiveVCPUs float64
	// TimedOut reports that the run hit the deadline before finishing.
	TimedOut bool
}

// RunApp launches an application via launch and runs the simulation
// until it completes (or deadline passes), returning the metrics. The
// error is non-nil only when the engine aborts (event limit exceeded);
// a deadline overrun is not an error — it is reported via
// AppResult.TimedOut, mirroring how the paper's timed-out runs are
// still data points.
func (b *Built) RunApp(launch func(k *guest.Kernel) *workload.App, deadline sim.Time) (AppResult, error) {
	return b.RunAppObserved(launch, deadline, 0, nil)
}

// RunAppObserved is RunApp with a periodic observation hook. It runs
// through RunObserved's epoch loop: observe sees the engine parked at
// every multiple of epoch on the engine clock, and once where the run
// ends, when the application completes or the deadline passes. Every
// result is the same as RunApp's.
func (b *Built) RunAppObserved(launch func(k *guest.Kernel) *workload.App, deadline, epoch sim.Time, observe func(now sim.Time)) (AppResult, error) {
	startWait := b.VM.TotalWaitTime
	var startIPIs uint64
	for i := 0; i < b.K.NCPUs(); i++ {
		startIPIs += b.K.CPUStatsOf(i).ReschedIPIs
	}
	start := b.Eng.Now()

	app := launch(b.K)
	app.OnDone = func(*workload.App) { b.Eng.Stop() }
	if err := b.runEpochs(start+deadline, epoch, observe, app.Done); err != nil {
		return AppResult{}, fmt.Errorf("scenario %q: %w", b.Setup.Mode, err)
	}
	end := b.Eng.Now()

	var endIPIs uint64
	for i := 0; i < b.K.NCPUs(); i++ {
		endIPIs += b.K.CPUStatsOf(i).ReschedIPIs
	}
	res := AppResult{
		Mode:           b.Setup.Mode,
		ExecTime:       app.ExecTime(),
		WaitTime:       b.VM.TotalWaitTime - startWait,
		AvgActiveVCPUs: b.K.AverageActiveVCPUs(),
		TimedOut:       !app.Done(),
	}
	if res.TimedOut {
		res.ExecTime = end - start
	}
	if dur := end - start; dur > 0 {
		res.IPIsPerVCPUSec = float64(endIPIs-startIPIs) / float64(b.K.NCPUs()) / sim.Time(dur).Seconds()
	}
	b.FinishTrace()
	return res, nil
}

// RunObserved advances the engine to stop with a periodic observation
// hook: observe is called with the engine parked at every multiple of
// epoch on the engine clock, and once at stop, so telemetry collectors
// can sample kernel, pool and domain state without scheduling a single
// engine event. The boundaries do not depend on where a leg starts, so
// consecutive legs (a warm-up, a measured window, a drain) collect on
// one grid. Chunking a run into RunUntil calls never reorders or drops
// events, so every simulation result is the same as one RunUntil(stop),
// and observe must only read. epoch <= 0 or a nil observe degenerates
// to that single call.
func (b *Built) RunObserved(stop, epoch sim.Time, observe func(now sim.Time)) error {
	return b.runEpochs(stop, epoch, observe, nil)
}

// runEpochs is RunObserved that also ends at the first boundary where
// done (when non-nil) reports true.
func (b *Built) runEpochs(stop, epoch sim.Time, observe func(now sim.Time), done func() bool) error {
	if observe == nil || epoch <= 0 {
		return b.Eng.RunUntil(stop)
	}
	for {
		next := min((b.Eng.Now()/epoch+1)*epoch, stop)
		if err := b.Eng.RunUntil(next); err != nil {
			return err
		}
		observe(b.Eng.Now())
		if b.Eng.Now() >= stop || done != nil && done() {
			return nil
		}
	}
}

// FinishTrace copies the engine's event counters into the scenario's
// tracer so exports show the drop accounting. RunApp calls it on every
// completion; callers driving Eng.RunUntil directly (the Apache load
// loop, the motivation experiment) should call it once before
// exporting. No-op without a tracer; safe to call repeatedly.
func (b *Built) FinishTrace() {
	if b.Tracer == nil {
		return
	}
	b.Tracer.SetEngineCounters(b.Eng.Scheduled, b.Eng.Cancelled, b.Eng.Processed)
}
