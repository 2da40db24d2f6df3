// Package runner is the deterministic parallel sweep harness of the
// vScale reproduction. A parameter sweep (apps × modes × spin counts,
// request rates, ablation variants, repeated seeds) is a set of fully
// independent simulations: each job builds its own sim.Engine, so the
// only thing serial execution buys is an ordering — which this package
// preserves while fanning the jobs out across a bounded worker pool.
//
// Determinism contract: the result slice, the per-run derived seeds and
// the per-run tracers depend only on the submission order, never on the
// worker count or on scheduling. Run(opts, n, job) with Workers=1 and
// Workers=8 returns element-for-element identical results (provided the
// jobs themselves are deterministic, which every simulation in this
// repository is — each owns its engine and PRNG). Wall-clock accounting
// in the Report is the only non-deterministic output, and it never
// feeds rendered reports.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"vscale/internal/trace"
)

// Options parameterises one Run call.
type Options struct {
	// Workers bounds the worker pool; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// BaseSeed is the root of the per-run seed derivation: job i receives
	// Context.Seed = DeriveSeed(BaseSeed, i). Jobs are free to ignore it
	// (the paper sweeps pin their seeds for reproducibility).
	BaseSeed uint64
	// Trace, when true, hands every job its own private trace.Tracer so
	// concurrent runs never share a collector; the tracers are returned
	// in submission order via the Report for a post-barrier trace.Merge.
	Trace bool
	// TraceCapacity sizes each per-run ring; <= 0 selects
	// trace.DefaultRingCapacity.
	TraceCapacity int
	// Report, when non-nil, accumulates run accounting (wall clocks,
	// seeds, tracers) across Run calls sharing it.
	Report *Report
}

// workers resolves the effective pool width for n jobs.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Context carries a job's identity: its submission index, its derived
// seed and (when Options.Trace is set) its private tracer.
type Context struct {
	// Index is the job's submission index, 0-based.
	Index int
	// Seed is DeriveSeed(Options.BaseSeed, Index) — stable across worker
	// counts by construction.
	Seed uint64
	// Tracer is the job's private tracer (nil unless Options.Trace).
	Tracer *trace.Tracer
}

// Report accumulates the accounting of one or more Run calls. All
// fields are appended in submission order. The wall clocks are real
// time, not virtual time: they measure the harness, not the
// simulation. vscalesim prints them and the benchmark/ module reads
// them.
type Report struct {
	// Jobs counts jobs executed.
	Jobs int
	// Workers is the effective pool width of the widest Run call.
	Workers int
	// Wall sums the elapsed wall clock of each Run call (barrier to
	// barrier).
	Wall time.Duration
	// JobWall holds each job's own wall clock, in submission order.
	JobWall []time.Duration
	// Seeds holds each job's derived seed, in submission order.
	Seeds []uint64
	// Tracers holds each job's tracer, in submission order (entries are
	// nil when tracing was off for that call).
	Tracers []*trace.Tracer
}

// CPU returns the summed per-job wall clock — the serial-execution
// estimate the parallel Wall is compared against.
func (r *Report) CPU() time.Duration {
	var sum time.Duration
	for _, d := range r.JobWall {
		sum += d
	}
	return sum
}

// JobWallMin returns the shortest per-job wall clock (0 with no jobs).
func (r *Report) JobWallMin() time.Duration {
	if len(r.JobWall) == 0 {
		return 0
	}
	min := r.JobWall[0]
	for _, d := range r.JobWall[1:] {
		if d < min {
			min = d
		}
	}
	return min
}

// JobWallMax returns the longest per-job wall clock (0 with no jobs).
// The max-to-mean ratio is the straggler indicator: a pool can never
// beat Wall >= JobWallMax however many workers it has.
func (r *Report) JobWallMax() time.Duration {
	var max time.Duration
	for _, d := range r.JobWall {
		if d > max {
			max = d
		}
	}
	return max
}

// JobWallMean returns the mean per-job wall clock (0 with no jobs).
func (r *Report) JobWallMean() time.Duration {
	if len(r.JobWall) == 0 {
		return 0
	}
	return r.CPU() / time.Duration(len(r.JobWall))
}

// Speedup returns CPU()/Wall — ~1.0 when serial (or on a single-core
// host), approaching the worker count when the jobs are uniform.
func (r *Report) Speedup() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.CPU()) / float64(r.Wall)
}

// LiveTracers returns the non-nil tracers, in submission order, ready
// for trace.Merge.
func (r *Report) LiveTracers() []*trace.Tracer {
	var out []*trace.Tracer
	for _, t := range r.Tracers {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// DeriveSeed maps (base, index) to a per-run seed with a splitmix64
// step: well-distributed, collision-free in practice, and — crucially —
// a pure function of the submission index, so the seed a run gets never
// depends on the worker count or on which worker picked it up.
func DeriveSeed(base uint64, index int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Run executes n independent jobs on a bounded worker pool and returns
// their results in submission order. The first error (by submission
// index, not by completion time — again for determinism) is returned;
// the remaining jobs still run to completion so the Report stays
// complete. A panicking job is recovered into an error carrying its
// index rather than tearing down the whole sweep.
func Run[T any](opts Options, n int, job func(Context) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n <= 0 {
		return results, nil
	}
	errs := make([]error, n)
	walls := make([]time.Duration, n)
	seeds := make([]uint64, n)
	tracers := make([]*trace.Tracer, n)

	workers := opts.workers(n)
	start := time.Now()

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				ctx := Context{Index: i, Seed: DeriveSeed(opts.BaseSeed, i)}
				if opts.Trace {
					ctx.Tracer = trace.New(trace.Config{RingCapacity: opts.TraceCapacity})
				}
				seeds[i] = ctx.Seed
				tracers[i] = ctx.Tracer
				t0 := time.Now()
				results[i], errs[i] = runOne(ctx, job)
				walls[i] = time.Since(t0)
			}
		}()
	}
	for i := 0; i < n; i++ {
		indices <- i
	}
	close(indices)
	wg.Wait()

	if rep := opts.Report; rep != nil {
		rep.Jobs += n
		if workers > rep.Workers {
			rep.Workers = workers
		}
		rep.Wall += time.Since(start)
		rep.JobWall = append(rep.JobWall, walls...)
		rep.Seeds = append(rep.Seeds, seeds...)
		rep.Tracers = append(rep.Tracers, tracers...)
	}
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("run %d: %w", i, err)
		}
	}
	return results, nil
}

// runOne invokes the job with panic containment.
func runOne[T any](ctx Context, job func(Context) (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
	}()
	return job(ctx)
}
