// Command vscale-experiments regenerates the tables and figures of the
// vScale paper's evaluation (§5) on the simulated substrate.
//
// Usage:
//
//	vscale-experiments [-run list] [-quick] [-parallel N] [-window seconds]
//
// -run selects a comma-separated subset of the registered experiments
// (see -list); -experiment is an alias for it; the default runs
// everything in registry order. -quick
// shrinks sweeps for a fast smoke pass. -parallel bounds the worker pool
// each experiment fans its independent simulation runs across; the
// printed tables are byte-identical for every worker count.
//
// -policies selects the scaling policies the cluster experiment
// competes ('all' or a comma-separated subset of static, hotplug,
// vscale, pid, predictive; see cluster.PolicyNames).
//
// -warm-epochs gives every cluster fleet a policy-neutral warm-up
// prefix; -warmfork simulates it once per host count and forks each
// policy from the snapshot (bit-identical results, less wall clock);
// -checkpoint/-restore persist and reuse the warm-prefix snapshot
// (vscale-checkpoint/v1) across invocations. See docs/checkpoint.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vscale/internal/cluster"
	"vscale/internal/experiments"
	"vscale/internal/profiling"
	"vscale/internal/report"
	"vscale/internal/scenario"
	"vscale/internal/sim"
	"vscale/internal/telemetry"
	"vscale/internal/trace"
)

func main() {
	runList := flag.String("run", "all", "comma-separated experiments to run (or 'all'; see -list)")
	expList := flag.String("experiment", "", "alias for -run (merged with it)")
	list := flag.Bool("list", false, "list the registered experiments and exit")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast pass")
	parallel := flag.Int("parallel", 0, "worker pool size per experiment (default GOMAXPROCS)")
	window := flag.Float64("window", 20, "Apache measurement window per load level, seconds")
	policies := flag.String("policies", "all", "scaling policies for the cluster experiment: 'all' or a comma-separated subset of "+strings.Join(cluster.PolicyNames(), ", "))
	warmEpochs := flag.Int("warm-epochs", 0, "policy-neutral warm-up prefix for cluster fleets, epochs (0 = experiment defaults)")
	warmFork := flag.Bool("warmfork", false, "cluster: simulate the warm prefix once per host count and fork every policy from the snapshot (requires -warm-epochs)")
	checkpointFlag := flag.String("checkpoint", "", "cluster: write the warm-prefix snapshot (vscale-checkpoint/v1) to this file")
	restoreFlag := flag.String("restore", "", "cluster: fork the policies from a previously written snapshot instead of simulating the warm prefix")
	elasticFlag := flag.String("elastic", "", "cluster fleet elasticity mode: none | migrate | replicas | hybrid (default none; see docs/cluster.md)")
	seed := flag.Uint64("seed", 1, "base seed for per-run seed derivation")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of all runs to this path")
	schedstats := flag.Bool("schedstats", false, "print aggregate per-vCPU scheduling statistics")
	tracecap := flag.Int("tracecap", trace.DefaultRingCapacity, "trace ring capacity (events) per run")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this path on exit")
	telemetryAddr := flag.String("telemetry-addr", "", "serve a Prometheus /metrics scrape endpoint on this host:port while experiments run")
	telemetryOut := flag.String("telemetry-out", "", "write deterministic per-epoch telemetry JSONL (vscale-telemetry/v1) to this path")
	telemetryLinger := flag.Duration("telemetry-linger", 0, "keep serving the final telemetry snapshot this long after the experiments finish")
	flag.Parse()

	stopCPU, err := profiling.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if err := sim.CheckSpan(*window, sim.Second); err != nil {
		fmt.Fprintf(os.Stderr, "-window: %v\n", err)
		os.Exit(2)
	}

	registry := experiments.Registry()
	if *list {
		for _, e := range registry {
			fmt.Printf("%-10s %s\n%-10s   quick: %s; full: %s\n", e.Name, e.Desc, "", e.QuickParams, e.FullParams)
		}
		return
	}

	// -experiment is an alias for -run; naming either one replaces the
	// "all" default, and explicit selections from both flags merge.
	sel := *runList
	if *expList != "" {
		if sel == "all" {
			sel = *expList
		} else {
			sel += "," + *expList
		}
	}
	selected := map[string]bool{}
	for _, s := range strings.Split(sel, ",") {
		name := strings.TrimSpace(s)
		if name == "" {
			continue
		}
		if name != "all" {
			if _, ok := experiments.Find(name); !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: all, %s\n",
					name, strings.Join(experiments.Names(), ", "))
				os.Exit(2)
			}
		}
		selected[name] = true
	}
	want := func(name string) bool { return selected["all"] || selected[name] }

	pols, err := cluster.ParsePolicies(*policies)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Live telemetry: the scrape endpoint and the JSONL stream both hang
	// off one sink; diagnostics go to stderr so stdout stays
	// byte-identical with telemetry on or off.
	var telemetryFile *os.File
	if *telemetryOut != "" {
		f, err := os.Create(*telemetryOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		telemetryFile = f
	}
	var telemetryW io.Writer
	if telemetryFile != nil {
		telemetryW = telemetryFile
	}
	sink, err := telemetry.NewSink(*telemetryAddr, telemetryW)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if srv := sink.Server(); srv != nil {
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics on http://%s\n", srv.Addr())
	}

	cfg := experiments.NewConfig()
	cfg.Quick = *quick
	cfg.Window = sim.FromSeconds(*window)
	cfg.Workers = *parallel
	cfg.BaseSeed = *seed
	cfg.Trace = *traceOut != "" || *schedstats
	cfg.TraceCapacity = *tracecap
	cfg.Policies = pols
	cfg.WarmEpochs = *warmEpochs
	cfg.WarmFork = *warmFork
	cfg.CheckpointPath = *checkpointFlag
	cfg.RestorePath = *restoreFlag
	cfg.Elastic = *elasticFlag
	cfg.Telemetry = sink

	out := os.Stdout
	start := time.Now()
	var tracers []*trace.Tracer
	for _, e := range registry {
		if !want(e.Name) {
			continue
		}
		res, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "\n==================================================================\n%s\n==================================================================\n", e.Title)
		fmt.Fprint(out, res.Text)
		if res.Report != nil {
			tracers = append(tracers, res.Report.LiveTracers()...)
		}
	}

	if *traceOut != "" || *schedstats {
		// Each simulation ran with a private tracer; stitch the timelines
		// into one export, run0/, run1/, ... in submission order.
		tr := trace.Merge(tracers...)
		if tr == nil {
			tr = trace.New(trace.Config{RingCapacity: 1})
		}
		end := tr.MaxAt()
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := tr.WriteChrome(f, end); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(out, "\nwrote Chrome trace to %s (%d events recorded, %d dropped)\n",
				*traceOut, tr.Total(), tr.Dropped())
		}
		if *schedstats {
			fmt.Fprintln(out)
			fmt.Fprint(out, report.RenderSchedStats(tr.Snapshot(end)))
		}
	}

	// Timing goes to stderr so stdout stays byte-identical across
	// -parallel settings.
	fmt.Fprintf(os.Stderr, "\nall experiments done in %v (modes: %v)\n",
		time.Since(start).Round(time.Millisecond), scenario.Modes())

	if telemetryFile != nil {
		if err := telemetryFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote telemetry JSONL to %s\n", *telemetryOut)
	}
	if sink.Server() != nil && *telemetryLinger > 0 {
		// Hold the final snapshot up so scrapers (CI, a browser, a
		// Prometheus instance mid-interval) don't race a fast run's exit.
		fmt.Fprintf(os.Stderr, "telemetry: lingering %v on http://%s/metrics\n",
			*telemetryLinger, sink.Server().Addr())
		time.Sleep(*telemetryLinger)
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
