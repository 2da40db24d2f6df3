package runner

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"vscale/internal/sim"
)

// simJob runs a small self-contained simulation seeded from the
// context: a chain of events whose count and final clock depend only on
// the seed. It stands in for a scenario run.
func simJob(ctx Context) (string, error) {
	eng := sim.NewEngine(ctx.Seed)
	if ctx.Tracer != nil {
		eng.SetObserver(ctx.Tracer.SimEvent)
	}
	steps := 50 + int(ctx.Seed%50)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < steps {
			eng.After(sim.Time(1+eng.Rand().Intn(5))*sim.Microsecond, "tick", tick)
		}
	}
	eng.After(0, "start", tick)
	if err := eng.Run(); err != nil {
		return "", err
	}
	return fmt.Sprintf("run%d seed=%d steps=%d end=%v", ctx.Index, ctx.Seed, n, eng.Now()), nil
}

// TestSerialParallelIdentical is the harness's core contract: the
// result slice is byte-identical between 1 and 8 workers.
func TestSerialParallelIdentical(t *testing.T) {
	const n = 32
	var outs [3][]string
	for i, workers := range []int{1, 4, 8} {
		res, err := Run(Options{Workers: workers, BaseSeed: 7}, n, simJob)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = res
	}
	for i := 0; i < n; i++ {
		if outs[0][i] != outs[1][i] || outs[0][i] != outs[2][i] {
			t.Fatalf("result %d differs across worker counts:\n  w1: %s\n  w4: %s\n  w8: %s",
				i, outs[0][i], outs[1][i], outs[2][i])
		}
	}
}

// TestSeedDerivationStable: same submission index → same seed, whatever
// the worker count, and distinct indices get distinct seeds.
func TestSeedDerivationStable(t *testing.T) {
	const n = 64
	seen := make(map[uint64]int)
	for i := 0; i < n; i++ {
		s := DeriveSeed(1, i)
		if s2 := DeriveSeed(1, i); s2 != s {
			t.Fatalf("DeriveSeed not pure: %d vs %d", s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between index %d and %d", prev, i)
		}
		seen[s] = i
	}

	var reps [2]*Report
	for i, workers := range []int{1, 8} {
		rep := &Report{}
		if _, err := Run(Options{Workers: workers, BaseSeed: 99, Report: rep}, n, simJob); err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	for i := 0; i < n; i++ {
		if reps[0].Seeds[i] != reps[1].Seeds[i] {
			t.Fatalf("seed for index %d depends on worker count: %d vs %d",
				i, reps[0].Seeds[i], reps[1].Seeds[i])
		}
		if want := DeriveSeed(99, i); reps[0].Seeds[i] != want {
			t.Fatalf("seed %d = %d, want DeriveSeed = %d", i, reps[0].Seeds[i], want)
		}
	}
}

// TestRaceStress exercises the pool under -race: many concurrent
// simulations, each with its own engine and tracer, on ≥4 workers.
func TestRaceStress(t *testing.T) {
	rep := &Report{}
	res, err := Run(Options{Workers: 8, BaseSeed: 3, Trace: true, TraceCapacity: 256, Report: rep}, 64, simJob)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 64 || rep.Jobs != 64 {
		t.Fatalf("results=%d jobs=%d", len(res), rep.Jobs)
	}
	if rep.Workers < 4 {
		t.Fatalf("effective workers = %d, want >= 4", rep.Workers)
	}
	for i, tr := range rep.Tracers {
		if tr == nil || tr.Total() == 0 {
			t.Fatalf("run %d has no per-run tracer records", i)
		}
	}
	if len(rep.LiveTracers()) != 64 {
		t.Fatalf("LiveTracers = %d", len(rep.LiveTracers()))
	}
	if rep.CPU() <= 0 || rep.Wall <= 0 {
		t.Fatalf("accounting missing: cpu=%v wall=%v", rep.CPU(), rep.Wall)
	}
}

// TestErrorByLowestIndex: the returned error is the first failing
// submission index, not the first to finish, and healthy results
// survive.
func TestErrorByLowestIndex(t *testing.T) {
	boom := errors.New("boom")
	res, err := Run(Options{Workers: 4}, 10, func(ctx Context) (int, error) {
		if ctx.Index == 7 || ctx.Index == 3 {
			return 0, boom
		}
		return ctx.Index * 2, nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := err.Error(); got != "run 3: boom" {
		t.Fatalf("error not attributed to lowest index: %q", got)
	}
	if res[2] != 4 || res[9] != 18 {
		t.Fatalf("healthy results lost: %v", res)
	}
}

// TestPanicContained: a panicking job becomes an error carrying its
// index instead of killing the process.
func TestPanicContained(t *testing.T) {
	_, err := Run(Options{Workers: 2}, 4, func(ctx Context) (int, error) {
		if ctx.Index == 2 {
			panic("kaboom")
		}
		return 0, nil
	})
	if err == nil || err.Error() != "run 2: panicked: kaboom" {
		t.Fatalf("err = %v", err)
	}
}

// TestTracersAreDisjointAndOrdered: per-run tracers belong to their run
// only, in submission order, so a post-barrier merge reconstructs the
// serial trace layout.
func TestTracersAreDisjointAndOrdered(t *testing.T) {
	rep := &Report{}
	_, err := Run(Options{Workers: 4, Trace: true, TraceCapacity: 64, Report: rep}, 8,
		func(ctx Context) (int, error) {
			ctx.Tracer.SimEvent(sim.Time(ctx.Index)*sim.Second, "mark")
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range rep.Tracers {
		evs := tr.Events()
		if len(evs) != 1 {
			t.Fatalf("run %d: %d events, want exactly its own", i, len(evs))
		}
		if evs[0].At != sim.Time(i)*sim.Second {
			t.Fatalf("run %d holds run %v's event", i, evs[0].At.Seconds())
		}
	}
}

// TestZeroJobsAndReportAccumulation: n=0 is a no-op; a shared Report
// accumulates across Run calls.
func TestZeroJobsAndReportAccumulation(t *testing.T) {
	rep := &Report{}
	if _, err := Run(Options{Report: rep}, 0, simJob); err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 0 {
		t.Fatalf("jobs = %d", rep.Jobs)
	}
	for i := 0; i < 3; i++ {
		if _, err := Run(Options{Workers: 2, Report: rep}, 4, simJob); err != nil {
			t.Fatal(err)
		}
	}
	if rep.Jobs != 12 || len(rep.JobWall) != 12 || len(rep.Seeds) != 12 {
		t.Fatalf("report did not accumulate: %+v", rep)
	}
}

// TestJobWallStats: min/max/mean derive from the recorded per-job wall
// clocks, and all degrade to 0 on an empty report.
func TestJobWallStats(t *testing.T) {
	var empty Report
	if empty.JobWallMin() != 0 || empty.JobWallMax() != 0 || empty.JobWallMean() != 0 {
		t.Fatal("empty report stats must be 0")
	}
	rep := Report{JobWall: []time.Duration{
		4 * time.Millisecond, time.Millisecond, 7 * time.Millisecond, 4 * time.Millisecond,
	}}
	if got := rep.JobWallMin(); got != time.Millisecond {
		t.Fatalf("min = %v", got)
	}
	if got := rep.JobWallMax(); got != 7*time.Millisecond {
		t.Fatalf("max = %v", got)
	}
	if got := rep.JobWallMean(); got != 4*time.Millisecond {
		t.Fatalf("mean = %v", got)
	}

	live := &Report{}
	if _, err := Run(Options{Workers: 2, Report: live}, 5, simJob); err != nil {
		t.Fatal(err)
	}
	if live.JobWallMin() <= 0 || live.JobWallMax() < live.JobWallMin() ||
		live.JobWallMean() < live.JobWallMin() || live.JobWallMean() > live.JobWallMax() {
		t.Fatalf("inconsistent wall stats: min=%v mean=%v max=%v",
			live.JobWallMin(), live.JobWallMean(), live.JobWallMax())
	}
}

// TestWidth: the effective worker count is capped at the job count,
// with a floor of 1, and <= 0 selects GOMAXPROCS.
func TestWidth(t *testing.T) {
	for _, tc := range []struct{ workers, n, want int }{
		{8, 3, 3},
		{1, 100, 1},
		{4, 0, 1},
		{0, 1, 1},
	} {
		if got := (Options{Workers: tc.workers}).Width(tc.n); got != tc.want {
			t.Errorf("Options{Workers: %d}.Width(%d) = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
	if got, want := (Options{}).Width(1<<20), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Options{}.Width = %d, want GOMAXPROCS %d", got, want)
	}
}
