// Command benchmark measures the vscale simulator end to end and layer
// by layer on four fixed workloads: the paper's NPB grid (npb) and
// Apache sweep (httpd), a 100-host fleet (fleet) and a warm-forked
// fleet scoreboard (warmfork). Each workload runs in its own child
// process at GOMAXPROCS=1, repeats its fixed batch for about -seconds,
// checks every result, and prints "workload metric value unit" lines
// followed by one JSON result line. -trace 1 adds a traced pass and
// reports per-layer metrics instead. See README.md in this directory.
//
// Run it from the repository root with
//
//	bash benchmark/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1]
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// childEnv marks a process as a workload child of the benchmark.
const childEnv = "VSCALE_BENCH_CHILD"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	runs     int
	out      string
	size     string
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: npb, httpd, fleet or warmfork (default all four)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every workload input is derived from")
	fs.Float64Var(&o.seconds, "seconds", 10, "repeat the fixed batch while it fits in this many wall seconds (at least once)")
	fs.IntVar(&trace, "trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, each in a fresh process; metrics report the median")
	fs.StringVar(&o.out, "out", "", "directory for the traced run's spans, profiles and layers.json (default .bench_build/trace/<workload>)")
	fs.StringVar(&o.size, "size", "full", "batch size: full, or tiny for smoke tests")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case o.runs < 1:
		return o, fmt.Errorf("-runs must be at least 1, got %d", o.runs)
	case !(o.seconds > 0):
		return o, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if _, ok := sizes[o.size]; !ok {
		return o, fmt.Errorf("unknown -size %q (want full or tiny)", o.size)
	}
	if _, ok := workloadByName(o.workload); o.workload != "" && !ok {
		return o, fmt.Errorf("unknown -workload %q (want npb, httpd, fleet or warmfork)", o.workload)
	}
	o.trace = trace == 1
	return o, nil
}

// report is what one workload run measured. A child writes it to its
// standard output as JSON; the parent completes it.
type report struct {
	Workload  string             `json:"workload"`
	Env       envStamp           `json:"env"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Passes    int                `json:"passes"`
	CellWalls []float64          `json:"cell_walls_ms"`
	Metrics   map[string]float64 `json:"metrics"`
	// TracedWall is the traced pass's wall time in seconds, which turns
	// profile shares into seconds.
	TracedWall float64 `json:"traced_wall_s,omitempty"`
}

// book counts cells into the run's attempted and failed totals. A cell
// fails on an error or a broken invariant, and — where ref holds the
// committed digests — on a result that differs from them.
func (r *report) book(cells []cell, ref map[string]string) {
	for _, c := range cells {
		r.Attempted++
		err := c.err
		if err == nil && ref != nil {
			if want := ref[c.name]; want != c.digest {
				err = fmt.Errorf("%s: result digest %s, reference %q", c.name, c.digest, want)
			}
		}
		if err != nil {
			r.Failed++
			if len(r.Errors) < 10 {
				r.Errors = append(r.Errors, err.Error())
			}
		}
	}
}

//go:embed testdata/reference-seed1.json
var referenceJSON []byte

// reference returns the result digests a run must reproduce: those of
// seed 1 at full size, recorded at the commit that defined the
// benchmark. Other seeds and sizes are checked by invariants alone.
func reference(workload string, o options) (map[string]string, error) {
	if o.seed != 1 || o.size != "full" {
		return nil, nil
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &all); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	return all[workload], nil
}

// ---- child ----------------------------------------------------------

func childMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark child:", err)
		return 2
	}
	w, _ := workloadByName(o.workload)
	rep, err := measure(o, w)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// cpuSeconds is the process's user+system time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// passStats is one measured pass.
type passStats struct {
	res     passResult
	wall    float64 // s
	mallocs uint64
	alloc   uint64 // bytes
	numGC   uint32
	simS    float64
}

// runPass runs one pass over a batch from a freshly collected heap, so
// no pass pays for an earlier one's garbage.
func runPass(b batch, p *probe) passStats {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := p.open("pass", "")
	start := time.Now()
	res := b.pass(p)
	wall := time.Since(start).Seconds()
	end()
	runtime.ReadMemStats(&m1)
	st := passStats{res: res, wall: wall,
		mallocs: m1.Mallocs - m0.Mallocs, alloc: m1.TotalAlloc - m0.TotalAlloc, numGC: m1.NumGC - m0.NumGC}
	for _, c := range res.cells {
		st.simS += c.simS
	}
	return st
}

// bestCells returns the wall and CPU seconds of one pass made of every
// cell's fastest repetition. A cell is the same deterministic work in
// every pass, so its fastest run is the one least slowed by whatever
// else shares the machine; on a shared host those slowdowns come in
// sub-second bursts and move a whole pass by 10-25%, while the per-cell
// minimum moves by a few percent.
func bestCells(passes []passStats) (wall, cpu float64) {
	for i := range passes[0].res.cells {
		w, c := math.Inf(1), math.Inf(1)
		for _, p := range passes {
			w = math.Min(w, p.res.cells[i].wall.Seconds())
			c = math.Min(c, p.res.cells[i].cpu)
		}
		wall += w
		cpu += c
	}
	return wall, cpu
}

// measure runs one workload in this process: set-up several times,
// passes over the fixed batch while they fit in the time budget, the
// workload's one-off checks, and with tracing one more, traced pass.
func measure(o options, w workload) (*report, error) {
	sz := sizes[o.size]
	rep := &report{Workload: w.name, Env: stamp(o.seed, runtime.GOMAXPROCS(0)), Metrics: map[string]float64{}}
	ref, err := reference(w.name, o)
	if err != nil {
		return nil, err
	}
	if o.trace {
		// Sample allocations in the traced pass only (see tracedPass).
		runtime.MemProfileRate = 0
	}

	// Every pass sets its inputs up afresh, so set-up is timed as often
	// as the batch and at moments spread over the run. Start another
	// pass only while it is expected to end within the budget: at least
	// one pass, and about -seconds of measuring.
	var b batch
	var passes []passStats
	var setups, walls, allocs []float64
	begin := time.Now()
	for len(passes) == 0 || time.Since(begin).Seconds()+setups[len(setups)-1]+walls[len(walls)-1] <= o.seconds {
		runtime.GC()
		start := time.Now()
		if b, err = w.prepare(o.seed, sz, newProbe(false)); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		st := runPass(b, newProbe(false))
		rep.book(st.res.cells, ref)
		for _, c := range st.res.cells {
			rep.CellWalls = append(rep.CellWalls, float64(c.wall.Nanoseconds())/1e6)
		}
		passes = append(passes, st)
		walls = append(walls, st.wall)
		allocs = append(allocs, float64(st.mallocs)/st.simS)
	}
	rep.Passes = len(passes)
	var checked []cell
	if b.check != nil {
		checked = b.check(newProbe(false))
		rep.book(checked, ref)
	}

	m := rep.Metrics
	wall, cpu := bestCells(passes)
	m["wall_s"] = wall
	m["sim_s_per_wall_s"] = passes[0].simS / wall
	m["cpu_s"] = cpu
	m["setup_s"] = median(setups)
	m["allocs_per_sim_s"] = median(allocs)
	if pe := passes[0].res.paperErr; !math.IsNaN(pe) {
		m["paper_err"] = pe
	}
	if o.trace {
		if err := tracedPass(o, w, sz, ref, checked, median(walls), rep); err != nil {
			return nil, err
		}
	}
	m["fail_frac"] = float64(rep.Failed) / float64(rep.Attempted)
	return rep, nil
}

// cpuClasses reads the runtime's estimate of GC and total CPU seconds.
func cpuClasses() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// tracedPass runs one pass with spans, event observers, a CPU profile,
// an allocation profile and a heap sampler, writes them to the output
// directory, and books the per-layer metrics the child can compute.
// The profile shares are added by the parent (layerMetrics).
func tracedPass(o options, w workload, sz size, ref map[string]string, checked []cell, untracedWall float64, rep *report) error {
	p := newProbe(true)
	b, err := w.prepare(o.seed, sz, p)
	if err != nil {
		return fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	cpuF, err := os.Create(filepath.Join(o.out, "cpu.pprof"))
	if err != nil {
		return err
	}
	defer cpuF.Close()

	runtime.MemProfileRate = 512 * 1024 // the runtime's default
	runtime.GC()
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		return err
	}
	heap := startHeapSampler()
	gc0, total0 := cpuClasses()
	st := runPass(b, p)
	gc1, total1 := cpuClasses()
	peak := heap.Stop()
	pprof.StopCPUProfile()
	if err := cpuF.Close(); err != nil {
		return err
	}
	if err := writeProfile(filepath.Join(o.out, "allocs.pprof"), "allocs"); err != nil {
		return err
	}
	if err := p.writeSpans(filepath.Join(o.out, "spans.json"), w.name); err != nil {
		return err
	}
	if err := writeCells(filepath.Join(o.out, "cells.json"), append(st.res.cells, checked...)); err != nil {
		return err
	}
	rep.book(st.res.cells, ref)
	rep.TracedWall = st.wall

	m := rep.Metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	c := p.counts
	for k, v := range c {
		if isPerLayer(k) {
			m[k] = v
		}
	}
	m["xen.events"] = float64(p.events.xen)
	m["guest.events"] = float64(p.events.guest)
	m["workload.events"] = float64(p.events.workload)
	m["sim.events"] = c["sim.processed"]
	m["sim.events_per_s"] = c["sim.processed"] / m["wall_s"]
	if c["sim.scheduled"] > 0 {
		m["sim.cancel_frac"] = c["sim.cancelled"] / c["sim.scheduled"]
	}
	fleetCalls := p.calls["cluster.RunFleet"] + p.calls["cluster.RunFleetFork"] + p.calls["cluster.CaptureWarmPrefix"]
	if fleetCalls > 0 {
		m["cluster.control_plane_s"] = fleetCalls.Seconds() - c["cluster.host_sim_s"]
	}
	m["checkpoint.capture_s"] = p.calls["cluster.CaptureWarmPrefix"].Seconds()
	m["checkpoint.encode_s"] = p.calls["cluster.FleetCheckpoint.Encode"].Seconds()
	m["checkpoint.decode_s"] = p.calls["cluster.DecodeCheckpoint"].Seconds()
	m["checkpoint.fork_s"] = p.calls["cluster.RunFleetFork"].Seconds()
	if total1 > total0 {
		m["runtime.gc_cpu_share"] = (gc1 - gc0) / (total1 - total0)
	}
	m["runtime.num_gc"] = float64(st.numGC)
	m["runtime.heap_peak_mb"] = float64(peak) / (1 << 20)
	m["runtime.alloc_mb"] = float64(st.alloc) / (1 << 20)
	m["bench.cells"] = float64(len(st.res.cells))
	m["bench.cell_wall_p50_ms"] = quantile(rep.CellWalls, 0.5)
	m["bench.cell_wall_p90_ms"] = quantile(rep.CellWalls, 0.9)
	m["trace.overhead_frac"] = st.wall/untracedWall - 1
	return nil
}

func writeProfile(path, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCells records every cell of the traced pass and the one-off
// checks: its wall time, the simulated time it covered and its result
// digest.
func writeCells(path string, cells []cell) error {
	type row struct {
		Name   string  `json:"name"`
		WallMs float64 `json:"wall_ms"`
		SimS   float64 `json:"sim_s"`
		Digest string  `json:"digest"`
		Error  string  `json:"error,omitempty"`
	}
	rows := make([]row, 0, len(cells))
	for _, c := range cells {
		r := row{Name: c.name, WallMs: float64(c.wall.Nanoseconds()) / 1e6, SimS: c.simS, Digest: c.digest}
		if c.err != nil {
			r.Error = c.err.Error()
		}
		rows = append(rows, r)
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ---- parent ---------------------------------------------------------

func parentMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	// An interrupted benchmark stops its running child before it exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var runs [][]*report
	for _, name := range names {
		var reps []*report
		for i := 0; i < o.runs; i++ {
			rep, err := runWorkload(ctx, o, name, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			for _, e := range rep.Errors {
				fmt.Fprintf(stderr, "benchmark: %s: FAIL %s\n", name, e)
			}
			reps = append(reps, rep)
		}
		runs = append(runs, reps)
	}
	printResults(stdout, o, runs)
	return 0
}

// runWorkload runs one workload in a child process and completes its
// report: the child's peak RSS, and for a traced run the profile shares
// and (where it means something) the executor speedup.
func runWorkload(ctx context.Context, o options, name string, stderr io.Writer) (*report, error) {
	out := o.out
	if out == "" {
		out = filepath.Join(".bench_build", "trace", name)
	}
	if o.trace {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
	}
	rep, err := runChild(ctx, o, name, out, 1, stderr)
	if err != nil || !o.trace {
		return rep, err
	}
	if err := layerMetrics(rep, out); err != nil {
		return nil, err
	}
	if name == "fleet" && speedupAllowed(runtime.NumCPU(), 2) {
		// One more untraced run with two workers on two Ps: the wall
		// ratio is what the executor's parallelism buys on the host.
		wide := o
		wide.trace = false
		rep2, err := runChild(ctx, wide, name, out, 2, stderr)
		if err != nil {
			return nil, err
		}
		rep.Metrics[speedupMetric.name] = rep.Metrics["wall_s"] / rep2.Metrics["wall_s"]
	}
	return rep, nil
}

// runChild runs one workload in a fresh process with procs Ps and
// returns its report with the process's peak RSS added.
func runChild(ctx context.Context, o options, name, out string, procs int, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// A run lasts its budget plus set-up, checks and a traced pass,
	// each a few seconds; a child hung far past that is stopped.
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second+time.Duration(2*o.seconds*float64(time.Second)))
	defer cancel()
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace,
		"-out", out,
		"-size", o.size)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(procs))
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	rep := &report{}
	if err := json.Unmarshal(buf.Bytes(), rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, nil
}

// callerLayers re-attribute standard-library code by its caller: the
// JSON encoding under telemetry collection is telemetry's cost, and the
// sha256 of the benchmark's result digests is the benchmark's, not the
// checkpoint layer's that encoding/json and sha256 otherwise map to.
var callerLayers = []struct{ focus, layer string }{
	{`vscale/internal/telemetry\.|collectTelemetry`, "telemetry"},
	{`^main\.digest$`, "bench"},
}

// layerMetrics turns the traced pass's profiles into per-layer shares
// and writes them to layers.json beside the profiles.
func layerMetrics(rep *report, dir string) error {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return fmt.Errorf("profile shares need the go tool: %w", err)
	}
	cpu := filepath.Join(dir, "cpu.pprof")
	profiles := []struct {
		path string
		args []string
	}{
		{cpu, []string{"-lines"}},
		{filepath.Join(dir, "allocs.pprof"), []string{"-lines", "-sample_index=alloc_objects"}},
	}
	var shares [2]map[string]float64 // of CPU samples (self), of allocations
	for i, pr := range profiles {
		rows, err := pprofTop(goBin, pr.path, pr.args...)
		if err != nil {
			return err
		}
		shares[i] = layerShares(rows)
		for _, c := range callerLayers {
			args := append(append([]string(nil), pr.args...), "-focus="+c.focus)
			focused, err := pprofTop(goBin, pr.path, args...)
			if err != nil {
				return err
			}
			moveToLayer(shares[i], focused, c.layer)
		}
	}
	self, alloc := shares[0], shares[1]
	funcs, err := pprofTop(goBin, cpu)
	if err != nil {
		return err
	}

	m := rep.Metrics
	for _, l := range selfShareLayers {
		m[l+".self_share"] = self[l]
	}
	for _, l := range allocShareLayers {
		m[l+".alloc_share"] = alloc[l]
	}
	const (
		restoreHost = "vscale/internal/cluster.RestoreHost"
		runEpoch    = "vscale/internal/cluster.(*Host).RunEpoch"
		epochDone   = "vscale/internal/telemetry.(*Collector).EpochDone"
	)
	cum := map[string]float64{}
	for _, fn := range []string{restoreHost, runEpoch, epochDone} {
		cum[fn] = cumShare(funcs, fn)
	}
	m["checkpoint.restore_s"] = cum[restoreHost] * rep.TracedWall
	m["telemetry.write_s"] = cum[epochDone] * rep.TracedWall
	m["cluster.run_epoch_share"] = cum[runEpoch]

	data, err := json.MarshalIndent(map[string]any{
		"workload":    rep.Workload,
		"env":         rep.Env,
		"self_share":  self,
		"alloc_share": alloc,
		"cum_share":   cum,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(data, '\n'), 0o644)
}

// valueUnit is one metric of the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// printResults prints every metric of every workload as
// "workload metric value unit" (with the spread over runs when there
// were several), then the result line. The result line carries the
// gated end-to-end metrics, or with -trace 1 the per-layer ones; with
// more than one workload its metric names are prefixed "workload/".
func printResults(w io.Writer, o options, runs [][]*report) {
	res := result{Metrics: map[string]valueUnit{}}
	for _, reps := range runs {
		name := reps[0].Workload
		env, _ := json.Marshal(reps[0].Env)
		fmt.Fprintf(w, "# %s env %s\n", name, env)
		var walls []float64
		passes := 0
		for _, r := range reps {
			res.Attempted += r.Attempted
			res.Failed += r.Failed
			walls = append(walls, r.CellWalls...)
			passes += r.Passes
		}
		if p, ok := tailPercentile(len(walls)); ok && p > 50 {
			fmt.Fprintf(w, "# %s cell wall: p50 %.3f ms, p%d %.3f ms over %d cells in %d passes\n",
				name, quantile(walls, 0.5), p, quantile(walls, float64(p)/100), len(walls), passes)
		}
		var keys []string
		for k := range reps[0].Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var vals []float64
			for _, r := range reps {
				if v, ok := r.Metrics[k]; ok {
					vals = append(vals, v)
				}
			}
			med := median(vals)
			if len(reps) > 1 {
				fmt.Fprintf(w, "%s %s %.6g %s iqr=%.3g n=%d\n", name, k, med, unitOf(k), iqr(vals), len(vals))
			} else {
				fmt.Fprintf(w, "%s %s %.6g %s\n", name, k, med, unitOf(k))
			}
			inResult := gated[k]
			if o.trace {
				inResult = isPerLayer(k)
			}
			if inResult {
				key := k
				if len(runs) > 1 {
					key = name + "/" + k
				}
				res.Metrics[key] = valueUnit{med, unitOf(k)}
			}
		}
	}
	res.Correct = res.Failed == 0
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}
