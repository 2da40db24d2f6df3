// Command vscalesim runs a single consolidation scenario: an SMP-VM
// executing one workload next to bursty slideshow desktops, under one of
// the four configurations of the paper, and prints the run's metrics.
//
// Usage:
//
//	vscalesim -workload npb:cg -mode vscale -vcpus 4 -pcpus 8 \
//	          -spincount 300000 [-runs 5] [-parallel N] \
//	          [-trace out.json] [-schedstats] [-seed 1]
//
// Workloads: npb:<bt|cg|dc|ep|ft|is|lu|mg|sp|ua>,
// parsec:<blackscholes|...|x264>, kernel-build, httpd:<rateK>.
//
// The httpd workload is driven by an open-loop Poisson generator and
// additionally reports reply-latency p50/p95/p99 and the fraction of
// offered requests answered within -slo milliseconds.
//
// -runs repeats the scenario with per-run seeds derived from -seed
// (splitmix64), fanned across -parallel workers; the per-run outputs are
// printed in run order and are independent of the worker count.
//
// The observability flags are the ones every simulator command shares
// (internal/cli). -trace writes a Chrome trace-event JSON file loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing; with -runs > 1 the
// per-run timelines are stitched with trace.Merge under run0/, run1/,
// ... track prefixes. -schedstats prints per-vCPU scheduling
// statistics.
//
// -telemetry-addr serves a Prometheus /metrics endpoint with the latest
// collection epoch while the simulation runs; -telemetry-out writes the
// per-epoch series as deterministic JSONL; -telemetry-epoch sets the
// collection period (virtual time). Telemetry is purely observational:
// stdout and all simulation results are byte-identical with it on or
// off. See docs/observability.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vscale/internal/cli"
	"vscale/internal/guest"
	"vscale/internal/loadgen"
	"vscale/internal/runner"
	"vscale/internal/scenario"
	"vscale/internal/sim"
	"vscale/internal/telemetry"
	"vscale/internal/trace"
	"vscale/internal/workload"
	"vscale/internal/workload/httpd"
	"vscale/internal/workload/npb"
	"vscale/internal/workload/parsec"
)

func main() {
	wl := flag.String("workload", "npb:cg", "workload to run")
	modeStr := flag.String("mode", "baseline", "baseline | pvlock | vscale | vscale+pvlock")
	vcpus := flag.Int("vcpus", 4, "vCPUs of the VM under test")
	pcpus := flag.Int("pcpus", 8, "pCPUs in the domU pool")
	spin := flag.Uint64("spincount", 300_000, "GOMP_SPINCOUNT for OpenMP workloads")
	seed := flag.Uint64("seed", 1, "simulation seed (base seed when -runs > 1)")
	runs := flag.Int("runs", 1, "number of repeats with derived per-run seeds")
	parallel := flag.Int("parallel", 0, "worker pool size for -runs (default GOMAXPROCS)")
	activetrace := flag.Bool("activetrace", false, "print the active-vCPU trace")
	sloMs := flag.Float64("slo", 50, "httpd per-request SLO, milliseconds")
	nobg := flag.Bool("dedicated", false, "no background VMs")
	maxSecs := flag.Float64("max", 600, "simulation deadline, seconds")
	telemetryEpoch := flag.Duration("telemetry-epoch", 500*time.Millisecond, "telemetry collection period, virtual time")
	outputs := cli.Register(flag.CommandLine)
	flag.Parse()

	var mode scenario.Mode
	switch *modeStr {
	case "baseline":
		mode = scenario.Baseline
	case "pvlock":
		mode = scenario.PVLock
	case "vscale":
		mode = scenario.VScale
	case "vscale+pvlock":
		mode = scenario.VScalePVLock
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeStr)
		os.Exit(2)
	}
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "-runs must be >= 1")
		os.Exit(2)
	}
	if *vcpus < 1 || *vcpus > guest.MaxVCPUs || *pcpus < 1 {
		fmt.Fprintf(os.Stderr, "-vcpus must be in 1..%d and -pcpus >= 1\n", guest.MaxVCPUs)
		os.Exit(2)
	}
	checkSpan := func(name string, v float64, unit sim.Time) {
		if err := sim.CheckSpan(v, unit); err != nil {
			fmt.Fprintf(os.Stderr, "-%s: %v\n", name, err)
			os.Exit(2)
		}
	}
	checkSpan("max", *maxSecs, sim.Second)
	if *sloMs != 0 {
		checkSpan("slo", *sloMs, sim.Millisecond)
	}
	checkSpan("telemetry-epoch", telemetryEpoch.Seconds(), sim.Second)

	fatal(outputs.Start())

	// Each run gets its own buffered collector (labelled run=<i>), and
	// the buffers are flushed in submission order after the run barrier,
	// so the JSONL stream is byte-identical for every -parallel setting.
	cols := make([]*telemetry.Collector, *runs)
	epoch := sim.FromSeconds(telemetryEpoch.Seconds())

	// runOnce builds, runs and renders one scenario; its text output goes
	// to the returned buffer so repeats can print in run order whatever
	// the worker interleaving.
	runOnce := func(runSeed uint64, runIdx int, tr *trace.Tracer) (string, error) {
		var out strings.Builder
		s := scenario.DefaultSetup()
		s.Mode = mode
		s.VMVCPUs = *vcpus
		s.PCPUs = *pcpus
		s.Seed = runSeed
		s.NoBackground = *nobg
		s.Tracer = tr
		b := scenario.Build(s)
		if *activetrace {
			b.K.StartTrace(100 * sim.Millisecond)
		}

		col := telemetry.NewCollector(outputs.Sink(), true,
			"run", strconv.Itoa(runIdx), "mode", *modeStr, "workload", *wl)
		cols[runIdx] = col
		var gen *loadgen.Generator // set by the httpd branch
		var observe func(now sim.Time)
		if col != nil {
			observe = func(now sim.Time) { collectScenario(col, b, gen, *sloMs, now) }
		}

		fmt.Fprintf(&out, "host: %d pCPUs, VM: %d vCPUs, %d background VMs, mode: %v, workload: %s, seed: %d\n",
			s.PCPUs, s.VMVCPUs, len(b.BG), mode, *wl, runSeed)

		var launch func(k *guest.Kernel) *workload.App
		switch {
		case strings.HasPrefix(*wl, "npb:"):
			p, err := npb.ProfileFor(strings.TrimPrefix(*wl, "npb:"))
			if err != nil {
				return "", err
			}
			launch = func(k *guest.Kernel) *workload.App {
				return npb.Launch(k, p, *vcpus, guest.SpinBudgetFromCount(*spin))
			}
		case strings.HasPrefix(*wl, "parsec:"):
			p, err := parsec.ProfileFor(strings.TrimPrefix(*wl, "parsec:"))
			if err != nil {
				return "", err
			}
			launch = func(k *guest.Kernel) *workload.App {
				return parsec.Launch(k, p, *vcpus, guest.SpinBudgetFromCount(*spin))
			}
		case *wl == "kernel-build": // forever-workload: reports the deadline window
			launch = func(k *guest.Kernel) *workload.App {
				app := workload.NewApp(k, "kernel-build")
				workload.NewKernelBuild(k, 2**vcpus).Start(app)
				return app
			}
		case strings.HasPrefix(*wl, "httpd:"):
			rateK, err := strconv.ParseFloat(strings.TrimPrefix(*wl, "httpd:"), 64)
			if err != nil {
				return "", err
			}
			if err := sim.CheckRate(rateK * 1000); err != nil {
				return "", fmt.Errorf("workload %s: %v", *wl, err)
			}
			cfg := httpd.DefaultConfig()
			link := httpd.NewLink(b.Eng, cfg.LinkBps)
			srv, err := httpd.NewServer(b.K, link, cfg)
			if err != nil {
				return "", err
			}
			gen = loadgen.New(b.Eng, srv, sim.NewRand(runSeed+7), sim.FromMillis(*sloMs))
			warm := scenario.DefaultWarmup
			if err := b.RunObserved(warm, epoch, observe); err != nil {
				return "", err
			}
			window := sim.FromSeconds(*maxSecs)
			gen.SetRate(rateK * 1000) // engine parked at warm: load starts now
			if err := b.RunObserved(warm+window, epoch, observe); err != nil {
				return "", err
			}
			gen.Stop()
			if err := b.RunObserved(warm+window+2*sim.Second, epoch, observe); err != nil {
				return "", err
			}
			if err := srv.Err(); err != nil {
				return "", err
			}
			b.FinishTrace()
			r := srv.Result(rateK*1000, window)
			st := gen.Stats()
			h := gen.Hist()
			fmt.Fprintf(&out, "offered: %.1fK/s  replies: %.2fK/s  conn: %.2fms  resp: %.2fms  errors: %d\n",
				r.RateRequested/1000, r.ReplyRate/1000, r.AvgConnMs, r.AvgRespMs, r.Errors)
			fmt.Fprintf(&out, "latency: p50=%.2fms  p95=%.2fms  p99=%.2fms  SLO(%gms)=%.1f%%  (%d offered, %d replies, %d errors)\n",
				h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99),
				*sloMs, 100*st.Attainment(), st.Offered, st.Replies, st.Errors)
		default:
			return "", fmt.Errorf("unknown workload %q", *wl)
		}
		if launch != nil {
			r, err := b.RunAppObserved(launch, sim.FromSeconds(*maxSecs), epoch, observe)
			if err != nil {
				return "", err
			}
			status := "completed"
			if r.TimedOut {
				status = "deadline reached"
			}
			fmt.Fprintf(&out, "%s: exec=%v  vm-wait=%v  ipis/vcpu/s=%.1f  avg-active-vcpus=%.2f\n",
				status, r.ExecTime, r.WaitTime, r.IPIsPerVCPUSec, r.AvgActiveVCPUs)
		}

		if *activetrace {
			fmt.Fprintln(&out, "\nactive-vCPU trace:")
			for _, p := range b.K.Trace() {
				fmt.Fprintf(&out, "  t=%6.2fs  active=%d %s\n", p.At.Seconds(), p.Active,
					strings.Repeat("#", p.Active))
			}
		}
		return out.String(), nil
	}

	rep := &runner.Report{}
	outs, err := runner.Run(runner.Options{
		Workers:       *parallel,
		BaseSeed:      *seed,
		Trace:         outputs.Tracing(),
		TraceCapacity: outputs.TraceCapacity(),
		Report:        rep,
	}, *runs, func(ctx runner.Context) (string, error) {
		runSeed := *seed
		if *runs > 1 {
			runSeed = ctx.Seed // splitmix64-derived, stable per index
		}
		return runOnce(runSeed, ctx.Index, ctx.Tracer)
	})
	fatal(err)

	// Post-barrier: drain the per-run telemetry buffers in submission
	// order. The scrape endpoint already saw each epoch live; the JSONL
	// stream is assembled here so its order never depends on worker
	// interleaving.
	for _, col := range cols {
		col.Flush()
		fatal(col.Err())
	}

	for i, o := range outs {
		if *runs > 1 {
			fmt.Printf("--- run %d ---\n", i)
		}
		fmt.Print(o)
	}
	if *runs > 1 {
		fmt.Printf("\n%d runs in %v wall (%v cpu, %.2fx speedup, %d workers)\n",
			rep.Jobs, rep.Wall.Round(time.Millisecond), rep.CPU().Round(time.Millisecond),
			rep.Speedup(), rep.Workers)
		fmt.Printf("per-run wall: min=%v mean=%v max=%v\n",
			rep.JobWallMin().Round(time.Millisecond), rep.JobWallMean().Round(time.Millisecond),
			rep.JobWallMax().Round(time.Millisecond))
	}

	fatal(outputs.Finish(os.Stdout, rep.LiveTracers()))
}

// collectScenario samples the scenario's one host and its VM under test
// at an epoch boundary and closes the collector's epoch. The host is
// labelled host="0", so its series share the fleet's label schema. The
// background slideshow VMs stay out of the catalog: they are scenery,
// and their per-VM series would dwarf the signal at 2:1 consolidation.
// gen is non-nil only for the httpd workload, whose SLO is sloMs.
func collectScenario(col *telemetry.Collector, b *scenario.Built, gen *loadgen.Generator, sloMs float64, now sim.Time) {
	col.Clock(now)
	col.Host("0", b.Pool, b.Tracer)
	col.VM("0", "vm", b.K, 0, gen)
	if gen != nil {
		col.SLO(sloMs)
	}
	col.EpochDone(now)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
