// Package parsec models the synchronisation skeletons of the PARSEC 3.0
// suite (paper Figures 11, 12, 13). PARSEC applications are pthread
// programs whose thread coordination runs through mutexes and condition
// variables (futex wait/wake with reschedule IPIs); freqmine is the one
// OpenMP member. Each profile captures a shape class — data-parallel
// with coarse joins, pipeline with producer/consumer queues, or
// barrier-structured phases — with parameters fitted to the paper's IPI
// profiling (Figure 13: dedup ~940 IPIs/vCPU/s, streamcluster ~183, the
// well-partitioned codes near zero).
package parsec

import (
	"fmt"

	"vscale/internal/guest"
	"vscale/internal/sim"
	"vscale/internal/workload"
)

// Shape classifies an application's coordination structure.
type Shape int

// Coordination shapes.
const (
	// DataParallel: threads compute independently, then join on a
	// pthread barrier built on mutex+cond. The barrier runs every
	// iteration, as in PhaseBarrier; the two shapes differ only in
	// their profiles (iterations, segment lengths, skew).
	DataParallel Shape = iota
	// Pipeline: stages connected by bounded queues with heavy
	// signal/wait traffic (dedup, ferret, x264-style).
	Pipeline
	// PhaseBarrier: tight barrier-synchronised phases built over
	// mutex+cond (streamcluster's custom barrier).
	PhaseBarrier
	// OpenMP: freqmine; OpenMP barrier with the default 300K spincount.
	OpenMP
	// NoSync: embarrassingly parallel, no synchronisation primitives at
	// all (swaptions).
	NoSync
)

// Profile describes one PARSEC application.
type Profile struct {
	Name  string
	Shape Shape
	// Iterations is the number of outer phases (or items per thread for
	// pipelines).
	Iterations int
	// SegMean is the mean compute between coordination points.
	SegMean sim.Time
	// Skew is the per-segment imbalance.
	Skew float64
	// QueueOpsPerItem, for pipelines, is how many lock/signal rounds one
	// item costs per stage.
	QueueOpsPerItem int
	// LockLen is the critical-section length for queue/lock operations.
	LockLen sim.Time
}

// Profiles returns the 13 applications in the paper's figure order.
func Profiles() []Profile {
	ms := func(f float64) sim.Time { return sim.FromMillis(f) }
	us := func(f float64) sim.Time { return sim.FromMicros(f) }
	return []Profile{
		{Name: "blackscholes", Shape: DataParallel, Iterations: 150, SegMean: ms(25), Skew: 0.05},
		{Name: "bodytrack", Shape: PhaseBarrier, Iterations: 2000, SegMean: ms(1.6), Skew: 0.30},
		{Name: "canneal", Shape: DataParallel, Iterations: 1000, SegMean: ms(3.5), Skew: 0.25},
		{Name: "dedup", Shape: Pipeline, Iterations: 12000, SegMean: us(320), Skew: 0.30, QueueOpsPerItem: 2, LockLen: us(3)},
		{Name: "facesim", Shape: PhaseBarrier, Iterations: 1500, SegMean: ms(2.4), Skew: 0.30},
		{Name: "ferret", Shape: Pipeline, Iterations: 3200, SegMean: ms(1.1), Skew: 0.20, QueueOpsPerItem: 1, LockLen: us(3)},
		{Name: "fluidanimate", Shape: PhaseBarrier, Iterations: 1800, SegMean: ms(1.8), Skew: 0.35},
		{Name: "freqmine", Shape: OpenMP, Iterations: 1600, SegMean: ms(2.2), Skew: 0.15},
		{Name: "raytrace", Shape: DataParallel, Iterations: 250, SegMean: ms(14), Skew: 0.10},
		{Name: "streamcluster", Shape: PhaseBarrier, Iterations: 3800, SegMean: ms(0.9), Skew: 0.30},
		{Name: "swaptions", Shape: NoSync, Iterations: 90, SegMean: ms(45), Skew: 0.05},
		{Name: "vips", Shape: Pipeline, Iterations: 3500, SegMean: ms(1.0), Skew: 0.25, QueueOpsPerItem: 1, LockLen: us(3)},
		{Name: "x264", Shape: Pipeline, Iterations: 2700, SegMean: ms(1.3), Skew: 0.30, QueueOpsPerItem: 1, LockLen: us(3)},
	}
}

// ProfileFor returns the profile with the given name.
func ProfileFor(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("parsec: unknown application %q", name)
}

// Names lists application names in figure order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// Launch starts the application with nThreads workers. ompSpinBudget
// applies only to the OpenMP member (freqmine).
func Launch(k *guest.Kernel, p Profile, nThreads int, ompSpinBudget sim.Time) *workload.App {
	app := workload.NewApp(k, "parsec/"+p.Name)
	switch p.Shape {
	case NoSync:
		launchNoSync(app, p, nThreads)
	case DataParallel, PhaseBarrier:
		launchCondBarrier(k, app, p, nThreads)
	case Pipeline:
		launchPipeline(k, app, p, nThreads)
	case OpenMP:
		launchOpenMP(k, app, p, nThreads, ompSpinBudget)
	}
	return app
}

// segRange is the [lo, hi) range of p's compute segments.
func segRange(p Profile) (sim.Time, sim.Time) {
	lo := sim.Time(float64(p.SegMean) * (1 - p.Skew))
	hi := sim.Time(float64(p.SegMean) * (1 + p.Skew))
	return lo, hi
}

func launchNoSync(app *workload.App, p Profile, n int) {
	lo, hi := segRange(p)
	for th := 0; th < n; th++ {
		app.Go(fmt.Sprintf("%s.%d", p.Name, th), &workload.RandLoop{
			N:    p.Iterations,
			Body: func(_ int, ops *workload.Ops) { ops.RandCompute(lo, hi) },
		})
	}
}

// condBarrier is a pthread-style barrier built from a mutex and a
// condition variable (as streamcluster hand-rolls): arrive under the
// lock; the last arriver broadcasts, others cond-wait.
type condBarrier struct {
	m       *guest.Mutex
	cv      *guest.Cond
	n       int
	arrived int
	gen     uint64
	// arrive is the decision taken under the lock, bound once.
	arrive workload.DynamicFunc
}

func newCondBarrier(k *guest.Kernel, n int) *condBarrier {
	b := &condBarrier{m: k.NewMutex(), cv: k.NewCond(), n: n}
	b.arrive = func(t *guest.Thread, _ int, acts []guest.Action) []guest.Action {
		// Executed while holding b.m: arrivals are serialised, so a
		// broadcast can never race past a waiter's registration.
		b.arrived++
		if b.arrived == b.n {
			b.arrived = 0
			b.gen++
			return append(acts,
				guest.Compute(200*sim.Nanosecond),
				guest.CondBroadcast(b.cv),
				guest.Unlock(b.m),
			)
		}
		return append(acts,
			guest.Compute(200*sim.Nanosecond),
			guest.CondWait(b.cv, b.m),
			guest.Unlock(b.m),
		)
	}
	return b
}

// episode appends one barrier episode: take the mutex, then decide under
// the lock (via a Dynamic op, expanded only after the Lock completed)
// whether to broadcast or cond-wait.
func (b *condBarrier) episode(ops *workload.Ops) {
	ops.Do(guest.Lock(b.m))
	ops.Dynamic(b.arrive)
}

func launchCondBarrier(k *guest.Kernel, app *workload.App, p Profile, n int) {
	b := newCondBarrier(k, n)
	lo, hi := segRange(p)
	for th := 0; th < n; th++ {
		app.Go(fmt.Sprintf("%s.%d", p.Name, th), &workload.RandLoop{
			N: p.Iterations,
			Body: func(_ int, ops *workload.Ops) {
				ops.RandCompute(lo, hi)
				b.episode(ops)
			},
		})
	}
}

// launchPipeline: stage 0 produces items into queue 1; middle stages
// consume and forward; the last stage consumes. Queues are WaitQueues
// with mutex-protected head/tail bookkeeping to generate the futex/IPI
// traffic dedup exhibits.
func launchPipeline(k *guest.Kernel, app *workload.App, p Profile, n int) {
	stages := n
	if stages < 2 {
		stages = 2
	}
	// Bounded inter-stage queues: a small capacity gives real pipeline
	// backpressure, so a stalled stage (its vCPU preempted) throttles
	// the whole pipeline instead of being papered over by buffering.
	queues := make([]*guest.WaitQueue, stages-1)
	locks := make([]*guest.Mutex, stages-1)
	for i := range queues {
		queues[i] = k.NewWaitQueue(4)
		locks[i] = k.NewMutex()
	}
	items := p.Iterations

	// Pipeline stages are heterogeneous (dedup's chunking and hashing
	// are far lighter than compression): light stages pack onto shared
	// vCPUs almost for free when vScale shrinks the VM, while the
	// bottleneck stage keeps a vCPU to itself.
	stageWeights := []float64{0.6, 1.4, 0.8, 1.2}
	stageRange := func(s int) (sim.Time, sim.Time) {
		w := stageWeights[s%len(stageWeights)]
		lo := sim.Time(float64(p.SegMean) * w * (1 - p.Skew))
		hi := sim.Time(float64(p.SegMean) * w * (1 + p.Skew))
		return lo, hi
	}

	// Producer (stage 0).
	lo, hi := stageRange(0)
	app.Go(p.Name+".s0", &workload.RandLoop{
		N: items,
		Body: func(i int, ops *workload.Ops) {
			ops.RandCompute(lo, hi)
			for op := 0; op < p.QueueOpsPerItem; op++ {
				ops.Do(
					guest.Lock(locks[0]),
					guest.Compute(p.LockLen),
					guest.Unlock(locks[0]),
				)
			}
			ops.Do(guest.Enqueue(queues[0], i))
		},
	})

	// Middle and final stages.
	for s := 1; s < stages; s++ {
		slo, shi := stageRange(s)
		app.Go(fmt.Sprintf("%s.s%d", p.Name, s), &workload.RandLoop{
			N: items,
			Body: func(i int, ops *workload.Ops) {
				ops.Do(guest.Dequeue(queues[s-1]))
				ops.RandCompute(slo, shi)
				if s < stages-1 {
					for op := 0; op < p.QueueOpsPerItem; op++ {
						ops.Do(
							guest.Lock(locks[s]),
							guest.Compute(p.LockLen),
							guest.Unlock(locks[s]),
						)
					}
					ops.Do(guest.Enqueue(queues[s], i))
				}
			},
		})
	}
}

func launchOpenMP(k *guest.Kernel, app *workload.App, p Profile, n int, spinBudget sim.Time) {
	b := k.NewBarrier(n, spinBudget)
	lo, hi := segRange(p)
	for th := 0; th < n; th++ {
		app.Go(fmt.Sprintf("%s.%d", p.Name, th), &workload.RandLoop{
			N: p.Iterations,
			Body: func(_ int, ops *workload.Ops) {
				ops.RandCompute(lo, hi)
				ops.Do(guest.BarrierWait(b))
			},
		})
	}
}
