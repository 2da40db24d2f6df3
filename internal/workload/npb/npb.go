// Package npb models the synchronisation skeletons of the NAS Parallel
// Benchmarks (OMP flavour, class-S-scale) used in the paper's Figures 6,
// 7, 8, 9 and 10. Each application is reduced to its synchronisation
// structure: iteration count, per-iteration compute per thread (with a
// skew factor that determines barrier imbalance), barrier frequency, and
// — for lu — the hand-rolled busy-wait pipeline that bypasses OpenMP's
// wait policy entirely. The absolute problem sizes are scaled so a run
// completes in a few simulated seconds; the *relative* behaviour across
// configurations (vanilla / pv-spinlock / vScale) is what reproduces the
// paper's figures.
package npb

import (
	"fmt"

	"vscale/internal/guest"
	"vscale/internal/sim"
	"vscale/internal/workload"
)

// Profile describes one NPB application's synchronisation skeleton.
type Profile struct {
	Name string
	// Iterations of the outer timestep loop.
	Iterations int
	// SegMean is the mean per-thread compute between barriers.
	SegMean sim.Time
	// Skew is the relative imbalance between threads within an
	// iteration (0 = perfectly balanced, 0.5 = ±50%).
	Skew float64
	// BarriersPerIter is how many barrier episodes one iteration has.
	BarriersPerIter int
	// CriticalPerIter adds mutex-protected critical sections per
	// iteration (reductions).
	CriticalPerIter int
	// CriticalLen is the critical-section length.
	CriticalLen sim.Time
	// AdHocSpin marks lu's hand-rolled busy-wait pipeline: threads
	// synchronise through SpinVars regardless of the OpenMP wait policy.
	AdHocSpin bool
	// IOPerIter adds dc-style I/O waits per iteration.
	IOPerIter int
	// IOService is the device service time for those I/Os.
	IOService sim.Time
}

// Profiles returns the ten NPB-OMP applications, ordered as in the
// paper's figures. The parameters are fitted to the paper's own
// profiling: lu uses ad-hoc spinning (its gain is policy-independent),
// ep/ft/is have little synchronisation (Figure 10 shows few IPIs), dc is
// I/O- and futex-heavy (the 1080 IPIs/vCPU/s outlier), and bt/cg/mg/
// sp/ua are barrier-dominated with varying granularity.
func Profiles() []Profile {
	ms := func(f float64) sim.Time { return sim.FromMillis(f) }
	return []Profile{
		{Name: "bt", Iterations: 400, SegMean: ms(3.0), Skew: 0.30, BarriersPerIter: 3},
		{Name: "cg", Iterations: 500, SegMean: ms(1.5), Skew: 0.35, BarriersPerIter: 4},
		{Name: "dc", Iterations: 250, SegMean: ms(4.0), Skew: 0.20, BarriersPerIter: 1,
			CriticalPerIter: 10, CriticalLen: 40 * sim.Microsecond,
			IOPerIter: 1, IOService: ms(0.8)},
		{Name: "ep", Iterations: 4, SegMean: ms(1000), Skew: 0.02, BarriersPerIter: 1},
		{Name: "ft", Iterations: 30, SegMean: ms(80), Skew: 0.05, BarriersPerIter: 2},
		{Name: "is", Iterations: 40, SegMean: ms(45), Skew: 0.05, BarriersPerIter: 2,
			CriticalPerIter: 4, CriticalLen: 30 * sim.Microsecond},
		{Name: "lu", Iterations: 1200, SegMean: ms(2.5), Skew: 0.25, BarriersPerIter: 1, AdHocSpin: true},
		{Name: "mg", Iterations: 350, SegMean: ms(1.2), Skew: 0.40, BarriersPerIter: 6},
		{Name: "sp", Iterations: 500, SegMean: ms(1.6), Skew: 0.35, BarriersPerIter: 4},
		{Name: "ua", Iterations: 600, SegMean: ms(1.0), Skew: 0.40, BarriersPerIter: 5},
	}
}

// ProfileFor returns the profile with the given name.
func ProfileFor(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("npb: unknown application %q", name)
}

// Names lists the application names in figure order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// Launch starts the application on kernel k with nThreads OpenMP worker
// threads (OpenMP sizes its team from the online vCPUs at startup) and
// the given spin budget (GOMP_SPINCOUNT × check cost). It returns the
// harness; completion is observable via App.Done.
func Launch(k *guest.Kernel, p Profile, nThreads int, spinBudget sim.Time) *workload.App {
	app := workload.NewApp(k, "npb/"+p.Name)
	if p.AdHocSpin {
		launchAdHocPipeline(k, app, p, nThreads)
		return app
	}
	barriers := make([]*guest.Barrier, p.BarriersPerIter)
	for i := range barriers {
		barriers[i] = k.NewBarrier(nThreads, spinBudget)
	}
	var crit *guest.Mutex
	if p.CriticalPerIter > 0 {
		crit = k.NewMutex()
	}
	var dev *guest.Device
	if p.IOPerIter > 0 {
		dev = k.NewDevice("npb-disk", 0, 5*sim.Microsecond)
	}
	lo := sim.Time(float64(p.SegMean) * (1 - p.Skew))
	hi := sim.Time(float64(p.SegMean) * (1 + p.Skew))
	for th := 0; th < nThreads; th++ {
		app.Go(fmt.Sprintf("%s.%d", p.Name, th), &workload.RandLoop{
			N: p.Iterations,
			Body: func(_ int, ops *workload.Ops) {
				for bi, b := range barriers {
					ops.RandCompute(lo, hi)
					if bi == 0 {
						for ci := 0; ci < p.CriticalPerIter; ci++ {
							ops.Do(
								guest.Lock(crit),
								guest.Compute(p.CriticalLen),
								guest.Unlock(crit),
							)
						}
						for io := 0; io < p.IOPerIter; io++ {
							ops.Do(guest.IO(dev, p.IOService))
						}
					}
					ops.Do(guest.BarrierWait(b))
				}
			},
		})
	}
	return app
}

// launchAdHocPipeline models lu's hand-rolled pipelined wavefront: each
// thread computes a block, publishes its progress through a SpinVar and
// busy-waits for its predecessor — pure user-level spinning that no
// OpenMP wait policy controls (the paper: "lu implements its own
// synchronization primitives via busy-waiting, beyond the control of
// OpenMP").
func launchAdHocPipeline(k *guest.Kernel, app *workload.App, p Profile, nThreads int) {
	ready := make([]*guest.SpinVar, nThreads)
	for i := range ready {
		ready[i] = k.NewSpinVar()
	}
	lo := sim.Time(float64(p.SegMean) * (1 - p.Skew))
	hi := sim.Time(float64(p.SegMean) * (1 + p.Skew))
	for th := 0; th < nThreads; th++ {
		pred := ready[(th+nThreads-1)%nThreads]
		own := ready[th]
		app.Go(fmt.Sprintf("lu.%d", th), &workload.RandLoop{
			N: p.Iterations,
			Body: func(iter int, ops *workload.Ops) {
				ops.RandCompute(lo, hi)
				if th != 0 {
					// Wait for the predecessor to publish this wavefront.
					ops.Do(guest.SpinWait(pred, uint64(iter+1)))
				} else if iter > 0 {
					// Thread 0 waits for the ring to complete the
					// previous front before starting the next.
					ops.Do(guest.SpinWait(pred, uint64(iter)))
				}
				ops.Do(guest.SpinSet(own))
			},
		})
	}
}
