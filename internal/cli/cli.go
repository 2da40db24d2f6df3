// Package cli holds what the simulator's commands share: the seven
// observability flags (-cpuprofile, -memprofile, -trace, -schedstats,
// -tracecap, -telemetry-addr, -telemetry-out), the outputs behind them,
// and the reports written from them at exit. Start creates every output
// file before anything runs, so a bad path fails at once, naming its
// flag, instead of after the simulation. Profiles, the JSONL stream and
// all diagnostics stay off stdout, so a command's stdout is the same
// with any of these outputs on or off; only -trace and -schedstats add
// their report lines there. See docs/observability.md.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"vscale/internal/report"
	"vscale/internal/telemetry"
	"vscale/internal/trace"
)

// Outputs holds one command's shared observability flags and the files
// and telemetry sink opened from them.
type Outputs struct {
	cpuProfile, memProfile, traceOut, telemetryOut, telemetryAddr string
	schedstats                                                    bool
	traceCap                                                      int

	cpu, mem, trace, jsonl *os.File
	sink                   *telemetry.Sink
}

// Register defines the shared flags on fs.
func Register(fs *flag.FlagSet) *Outputs {
	o := &Outputs{}
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this path")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile to this path on exit")
	fs.StringVar(&o.traceOut, "trace", "", "write a Chrome trace-event JSON of all runs to this path")
	fs.BoolVar(&o.schedstats, "schedstats", false, "print per-vCPU scheduling statistics, aggregated over all runs")
	fs.IntVar(&o.traceCap, "tracecap", trace.DefaultRingCapacity, "trace ring capacity (events) per run")
	fs.StringVar(&o.telemetryAddr, "telemetry-addr", "", "serve a Prometheus /metrics scrape endpoint on this host:port while the simulation runs")
	fs.StringVar(&o.telemetryOut, "telemetry-out", "", "write deterministic per-epoch telemetry JSONL (vscale-telemetry/v1) to this path")
	return o
}

// Tracing reports whether the runs need tracers: -trace or -schedstats.
func (o *Outputs) Tracing() bool { return o.traceOut != "" || o.schedstats }

// TraceCapacity is the per-run trace ring size (-tracecap).
func (o *Outputs) TraceCapacity() int { return o.traceCap }

// Sink is the telemetry sink Start opened: the -telemetry-addr scrape
// server and the -telemetry-out stream.
func (o *Outputs) Sink() *telemetry.Sink { return o.sink }

// Start creates every output file, starts the CPU profile and opens the
// telemetry sink, announcing its scrape address on stderr. Its error
// names the flag at fault.
func (o *Outputs) Start() error {
	for _, out := range []struct {
		flag, path string
		f          **os.File
	}{
		{"-cpuprofile", o.cpuProfile, &o.cpu},
		{"-memprofile", o.memProfile, &o.mem},
		{"-trace", o.traceOut, &o.trace},
		{"-telemetry-out", o.telemetryOut, &o.jsonl},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return fmt.Errorf("%s: %w", out.flag, err)
		}
		*out.f = f
	}
	if o.cpu != nil {
		if err := pprof.StartCPUProfile(o.cpu); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	var jsonl io.Writer
	if o.jsonl != nil {
		jsonl = o.jsonl
	}
	sink, err := telemetry.NewSink(o.telemetryAddr, jsonl)
	if err != nil {
		return fmt.Errorf("-telemetry-addr: %w", err)
	}
	o.sink = sink
	if srv := sink.Server(); srv != nil {
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics on http://%s\n", srv.Addr())
	}
	return nil
}

// Finish completes every output. It merges tracers (one per run, in
// submission order) and writes the Chrome trace and the schedstats
// table, with their report lines on w; then it closes the JSONL file and
// the scrape server, stops the CPU profile and writes the heap profile.
// Telemetry collectors must have flushed before. Every step runs; the
// error joins each failure, naming its flag.
func (o *Outputs) Finish(w io.Writer, tracers []*trace.Tracer) error {
	var errs []error
	fail := func(flag string, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", flag, err))
		}
	}
	if o.Tracing() {
		tr := trace.Merge(tracers...)
		if tr == nil {
			tr = trace.New(trace.Config{RingCapacity: 1})
		}
		end := tr.MaxAt()
		if o.trace != nil {
			err := errors.Join(tr.WriteChrome(o.trace, end), o.trace.Close())
			fail("-trace", err)
			if err == nil {
				fmt.Fprintf(w, "\nwrote Chrome trace to %s (%d events recorded, %d dropped)\n",
					o.traceOut, tr.Total(), tr.Dropped())
			}
		}
		if o.schedstats {
			fmt.Fprintln(w)
			fmt.Fprint(w, report.RenderSchedStats(tr.Snapshot(end)))
		}
	}
	if o.jsonl != nil {
		err := o.jsonl.Close()
		fail("-telemetry-out", err)
		if err == nil {
			fmt.Fprintf(os.Stderr, "wrote telemetry JSONL to %s\n", o.telemetryOut)
		}
	}
	fail("-telemetry-addr", o.sink.Close())
	if o.cpu != nil {
		pprof.StopCPUProfile()
		fail("-cpuprofile", o.cpu.Close())
	}
	if o.mem != nil {
		runtime.GC() // settle allocations so the profile reflects the live heap
		fail("-memprofile", errors.Join(pprof.WriteHeapProfile(o.mem), o.mem.Close()))
	}
	return errors.Join(errs...)
}
