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
// -trace writes a Chrome trace-event JSON file loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing; with -runs > 1 the per-run
// timelines are stitched with trace.Merge under run0/, run1/, ...
// track prefixes. -schedstats prints per-vCPU scheduling statistics.
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
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"vscale/internal/guest"
	"vscale/internal/loadgen"
	"vscale/internal/profiling"
	"vscale/internal/report"
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
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file to this path")
	schedstats := flag.Bool("schedstats", false, "print per-vCPU scheduling statistics")
	tracecap := flag.Int("tracecap", trace.DefaultRingCapacity, "trace ring capacity (events)")
	activetrace := flag.Bool("activetrace", false, "print the active-vCPU trace")
	sloMs := flag.Float64("slo", 50, "httpd per-request SLO, milliseconds")
	nobg := flag.Bool("dedicated", false, "no background VMs")
	maxSecs := flag.Float64("max", 600, "simulation deadline, seconds")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this path on exit")
	telemetryAddr := flag.String("telemetry-addr", "", "serve a Prometheus /metrics scrape endpoint on this host:port while the simulation runs")
	telemetryOut := flag.String("telemetry-out", "", "write deterministic per-epoch telemetry JSONL (vscale-telemetry/v1) to this path")
	telemetryEpoch := flag.Duration("telemetry-epoch", 500*time.Millisecond, "telemetry collection period, virtual time")
	flag.Parse()

	stopCPU, err := profiling.StartCPU(*cpuProfile)
	fatal(err)
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

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

	wantTrace := *traceOut != "" || *schedstats

	// Live telemetry: scrape endpoint and JSONL stream share one sink.
	// Each run gets its own buffered collector (labelled run=<i>), and
	// the buffers are flushed in submission order after the run barrier,
	// so the JSONL stream is byte-identical for every -parallel setting.
	// Diagnostics go to stderr; stdout is identical with telemetry off.
	var telemetryFile *os.File
	if *telemetryOut != "" {
		f, err := os.Create(*telemetryOut)
		fatal(err)
		telemetryFile = f
	}
	var telemetryW io.Writer
	if telemetryFile != nil {
		telemetryW = telemetryFile
	}
	sink, err := telemetry.NewSink(*telemetryAddr, telemetryW)
	fatal(err)
	if srv := sink.Server(); srv != nil {
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics on http://%s\n", srv.Addr())
	}
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

		col := telemetry.NewCollector(sink, true,
			"run", strconv.Itoa(runIdx), "mode", *modeStr, "workload", *wl)
		cols[runIdx] = col
		var telGen *loadgen.Generator // set by the httpd branch
		var observe func(now sim.Time)
		if col != nil {
			observe = func(now sim.Time) { collectScenario(col, b, telGen, *sloMs, now) }
		}

		fmt.Fprintf(&out, "host: %d pCPUs, VM: %d vCPUs, %d background VMs, mode: %v, workload: %s, seed: %d\n",
			s.PCPUs, s.VMVCPUs, len(b.BG), mode, *wl, runSeed)

		printResult := func(r scenario.AppResult) {
			status := "completed"
			if r.TimedOut {
				status = "deadline reached"
			}
			fmt.Fprintf(&out, "%s: exec=%v  vm-wait=%v  ipis/vcpu/s=%.1f  avg-active-vcpus=%.2f\n",
				status, r.ExecTime, r.WaitTime, r.IPIsPerVCPUSec, r.AvgActiveVCPUs)
		}

		switch {
		case strings.HasPrefix(*wl, "npb:"):
			app := strings.TrimPrefix(*wl, "npb:")
			p, err := npb.ProfileFor(app)
			if err != nil {
				return "", err
			}
			res, err := b.RunAppObserved(func(k *guest.Kernel) *workload.App {
				return npb.Launch(k, p, *vcpus, guest.SpinBudgetFromCount(*spin))
			}, sim.FromSeconds(*maxSecs), epoch, observe)
			if err != nil {
				return "", err
			}
			printResult(res)
		case strings.HasPrefix(*wl, "parsec:"):
			app := strings.TrimPrefix(*wl, "parsec:")
			p, err := parsec.ProfileFor(app)
			if err != nil {
				return "", err
			}
			res, err := b.RunAppObserved(func(k *guest.Kernel) *workload.App {
				return parsec.Launch(k, p, *vcpus, guest.SpinBudgetFromCount(*spin))
			}, sim.FromSeconds(*maxSecs), epoch, observe)
			if err != nil {
				return "", err
			}
			printResult(res)
		case *wl == "kernel-build":
			res, err := b.RunAppObserved(func(k *guest.Kernel) *workload.App {
				app := workload.NewApp(k, "kernel-build")
				workload.NewKernelBuild(k, 2**vcpus).Start(app)
				return app
			}, sim.FromSeconds(*maxSecs), epoch, observe)
			if err != nil {
				return "", err
			}
			printResult(res) // forever-workload: reports the deadline window
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
			gen := loadgen.New(b.Eng, srv, sim.NewRand(runSeed+7), loadgen.Config{
				SLO: sim.FromMillis(*sloMs),
			})
			telGen = gen
			warm := scenario.DefaultWarmup
			if err := runObserved(b.Eng, warm, epoch, observe); err != nil {
				return "", err
			}
			window := sim.FromSeconds(*maxSecs)
			gen.SetRate(rateK * 1000) // engine parked at warm: load starts now
			if err := runObserved(b.Eng, warm+window, epoch, observe); err != nil {
				return "", err
			}
			gen.Stop()
			if err := runObserved(b.Eng, warm+window+2*sim.Second, epoch, observe); err != nil {
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
		Trace:         wantTrace,
		TraceCapacity: *tracecap,
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
	if telemetryFile != nil {
		fatal(telemetryFile.Close())
		fmt.Fprintf(os.Stderr, "wrote telemetry JSONL to %s\n", *telemetryOut)
	}
	defer func() {
		if err := sink.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

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

	if wantTrace {
		tr := trace.Merge(rep.LiveTracers()...)
		if tr == nil {
			tr = trace.New(trace.Config{RingCapacity: 1})
		}
		end := tr.MaxAt()
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			fatal(err)
			fatal(tr.WriteChrome(f, end))
			fatal(f.Close())
			fmt.Printf("\nwrote Chrome trace to %s (%d events recorded, %d dropped)\n",
				*traceOut, tr.Total(), tr.Dropped())
		}
		if *schedstats {
			fmt.Println()
			fmt.Print(report.RenderSchedStats(tr.Snapshot(end)))
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
