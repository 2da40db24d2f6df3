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
	"os"
	"strings"
	"time"

	"vscale/internal/cli"
	"vscale/internal/cluster"
	"vscale/internal/experiments"
	"vscale/internal/scenario"
	"vscale/internal/sim"
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
	outputs := cli.Register(flag.CommandLine)
	flag.Parse()

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
	if _, _, err := cluster.ElasticityFor(*elasticFlag); err != nil {
		fmt.Fprintf(os.Stderr, "-elastic: %v\n", err)
		os.Exit(2)
	}

	if err := outputs.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg := experiments.NewConfig()
	cfg.Quick = *quick
	cfg.Window = sim.FromSeconds(*window)
	cfg.Workers = *parallel
	cfg.BaseSeed = *seed
	cfg.Trace = outputs.Tracing()
	cfg.TraceCapacity = outputs.TraceCapacity()
	cfg.Policies = pols
	cfg.WarmEpochs = *warmEpochs
	cfg.WarmFork = *warmFork
	cfg.CheckpointPath = *checkpointFlag
	cfg.RestorePath = *restoreFlag
	cfg.Elastic = *elasticFlag
	cfg.Telemetry = outputs.Sink()

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

	// Timing goes to stderr so stdout stays byte-identical across
	// -parallel settings.
	fmt.Fprintf(os.Stderr, "\nall experiments done in %v (modes: %v)\n",
		time.Since(start).Round(time.Millisecond), scenario.Modes())

	if err := outputs.Finish(out, tracers); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
