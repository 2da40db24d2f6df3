package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"vscale/internal/cluster"
	"vscale/internal/guest"
	"vscale/internal/runner"
	"vscale/internal/scenario"
	"vscale/internal/sim"
	"vscale/internal/telemetry"
	wl "vscale/internal/workload"
	"vscale/internal/workload/httpd"
	"vscale/internal/workload/npb"
)

// size scales the fixed batch of every workload. The benchmark always
// runs "full"; "tiny" keeps the smoke test of the harness fast. A full
// batch takes 2-2.5 s here, so a 25 s run repeats it about ten times:
// on a shared host the best of ten repetitions of each cell is what
// keeps run-to-run spread within a few percent (see bestCells).
type size struct {
	npbApps     []string // nil: every NPB app
	npbVCPUs    int
	npbModes    []scenario.Mode
	npbSpins    []uint64
	httpdRates  []float64 // offered load, K requests/s
	httpdWindow sim.Time
	fleetHosts  int
	fleetHoriz  sim.Time
	forkHosts   int
	forkHoriz   sim.Time
	forkWarm    int // warm epochs of DefaultEpoch
}

const spin30B = 30_000_000_000

var sizes = map[string]size{
	"full": {
		// Figure 6's Xen/Linux and vScale columns at every spin count.
		npbVCPUs:    4,
		npbModes:    []scenario.Mode{scenario.Baseline, scenario.VScale},
		npbSpins:    []uint64{spin30B, 300_000, 0},
		httpdRates:  []float64{4, 5, 6, 7, 8},
		httpdWindow: 4 * sim.Second,
		fleetHosts:  100,
		fleetHoriz:  4 * sim.Second,
		forkHosts:   64,
		forkHoriz:   10 * sim.Second,
		forkWarm:    16,
	},
	"tiny": {
		npbApps:     []string{"bt", "ep"},
		npbVCPUs:    4,
		npbModes:    []scenario.Mode{scenario.Baseline, scenario.VScale},
		npbSpins:    []uint64{spin30B, 0},
		httpdRates:  []float64{4, 8},
		httpdWindow: 2 * sim.Second,
		fleetHosts:  8,
		fleetHoriz:  2 * sim.Second,
		forkHosts:   4,
		forkHoriz:   3 * sim.Second,
		forkWarm:    3,
	},
}

// cell is the outcome of one independent unit of a batch: one scenario,
// one load level, one fleet run.
type cell struct {
	name   string
	wall   time.Duration
	cpu    float64 // process CPU seconds
	simS   float64 // simulated host-seconds the cell advanced
	digest string  // hash of the cell's full result
	err    error   // run error or broken invariant
}

// passResult is one pass over a workload's fixed batch.
type passResult struct {
	cells []cell
	// paperErr is the error against the paper's published values, NaN
	// for workloads the paper has no number for.
	paperErr float64
}

// batch is a workload's fixed work over inputs made from one seed.
type batch struct {
	pass func(p *probe) passResult
	// check runs once after the passes, for checks too costly to repeat
	// in every pass; nil when there are none.
	check func(p *probe) []cell
}

// workload names one benchmark workload and how to prepare its batch;
// BENCHMARK.json and README.md say why each exists. prepare makes every
// input from the seed; the harness runs it before every pass to time
// set-up, so it must have no effects beyond its result.
type workload struct {
	name    string
	prepare func(seed uint64, sz size, p *probe) (batch, error)
}

var workloads = []workload{
	{"npb", prepareNPB},
	{"httpd", prepareHTTPD},
	{"fleet", prepareFleet},
	{"warmfork", prepareWarmFork},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digest hashes a result's printed form. Printing with %v keeps every
// float at full precision, so equal digests mean equal results.
func digest(v ...any) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(v...)))
	return hex.EncodeToString(sum[:8])
}

// timeCell runs one cell as a span of p and stamps its wall and CPU
// time.
func timeCell(p *probe, name string, fn func(c *cell)) cell {
	c := cell{name: name}
	end := p.open("cell", name)
	cpu := cpuSeconds()
	start := time.Now()
	fn(&c)
	c.wall = time.Since(start)
	c.cpu = cpuSeconds() - cpu
	end()
	return c
}

// runUntil advances a single-host scenario. Traced passes advance in
// 100 ms steps of simulated time to sample the pending-event set, which
// changes no result: the event stream is the same either way.
func runUntil(b *scenario.Built, until sim.Time, p *probe) error {
	if !p.tracing {
		return b.Eng.RunUntil(until)
	}
	for t := b.Eng.Now(); t < until; {
		t += 100 * sim.Millisecond
		if t > until {
			t = until
		}
		if err := b.Eng.RunUntil(t); err != nil {
			return err
		}
		p.max("sim.pending_max", float64(b.Eng.Pending()))
	}
	return nil
}

// addHost books a finished single-host scenario's layer counters.
func addHost(p *probe, b *scenario.Built) {
	p.add("sim.processed", float64(b.Eng.Processed))
	p.add("sim.scheduled", float64(b.Eng.Scheduled))
	p.add("sim.cancelled", float64(b.Eng.Cancelled))
	p.add("xen.vscale_ticks", float64(b.Pool.VScaleTicks))
	p.add("xen.vm_wait_s", b.VM.TotalWaitTime.Seconds())
	for _, k := range append([]*guest.Kernel{b.K}, b.BG...) {
		for i := 0; i < k.NCPUs(); i++ {
			st := k.CPUStatsOf(i)
			p.add("guest.resched_ipis", float64(st.ReschedIPIs))
			p.add("guest.context_switches", float64(st.ContextSwitches))
			p.add("guest.thread_migrates", float64(st.ThreadMigrates))
			p.add("guest.device_irqs", float64(st.DeviceIRQs))
		}
	}
	reads, _ := b.K.DaemonStats()
	p.add("guest.daemon_reads", float64(reads))
}

// ---- npb ------------------------------------------------------------

// npbPaper holds the paper's normalized execution times (vScale over
// Xen/Linux) for the 4-vCPU VM at GOMP_SPINCOUNT=30B, the figures
// EXPERIMENTS.md quotes as 39/51/59/78% reductions.
var npbPaper = []struct {
	app  string
	norm float64
}{{"bt", 0.61}, {"cg", 0.49}, {"sp", 0.41}, {"ua", 0.22}}

// npbDeadline bounds one NPB run in simulated time; no app comes close.
const npbDeadline = 600 * sim.Second

type npbCell struct {
	app   string
	mode  scenario.Mode
	spin  uint64
	vcpus int
}

func (c npbCell) name() string {
	return fmt.Sprintf("npb/%s/%s/spin=%d/%dvcpu", c.app, c.mode, c.spin, c.vcpus)
}

func (c npbCell) setup(seed uint64) scenario.Setup {
	s := scenario.DefaultSetup()
	s.Mode = c.mode
	s.VMVCPUs = c.vcpus
	s.Seed = seed
	return s
}

func npbGrid(sz size) []npbCell {
	apps := sz.npbApps
	if apps == nil {
		apps = npb.Names()
	}
	var cells []npbCell
	for _, app := range apps {
		for _, mode := range sz.npbModes {
			for _, spin := range sz.npbSpins {
				cells = append(cells, npbCell{app, mode, spin, sz.npbVCPUs})
			}
		}
	}
	return cells
}

func prepareNPB(seed uint64, sz size, p *probe) (batch, error) {
	grid := npbGrid(sz)
	for _, c := range grid {
		_ = p.call("scenario.Build", c.name(), func() error { scenario.Build(c.setup(seed)); return nil })
	}
	return batch{pass: func(p *probe) passResult {
		out := passResult{}
		exec := map[npbCell]sim.Time{}
		for _, c := range grid {
			out.cells = append(out.cells, timeCell(p, c.name(), func(r *cell) {
				prof, err := npb.ProfileFor(c.app)
				if err != nil {
					r.err = err
					return
				}
				var b *scenario.Built
				_ = p.call("scenario.Build", r.name, func() error { b = scenario.Build(c.setup(seed)); return nil })
				b.Eng.SetObserver(p.observer())
				launch := func(k *guest.Kernel) *wl.App {
					return npb.Launch(k, prof, c.vcpus, guest.SpinBudgetFromCount(c.spin))
				}
				var res scenario.AppResult
				r.err = p.call("scenario.RunApp", r.name, func() (err error) {
					if !p.tracing {
						res, err = b.RunApp(launch, npbDeadline)
						return err
					}
					res, err = b.RunAppObserved(launch, npbDeadline, 100*sim.Millisecond, func(sim.Time) {
						p.max("sim.pending_max", float64(b.Eng.Pending()))
					})
					return err
				})
				if r.err != nil {
					return
				}
				addHost(p, b)
				r.simS = b.Eng.Now().Seconds()
				r.digest = digest(res)
				if res.TimedOut {
					r.err = fmt.Errorf("%s: timed out after %v", r.name, npbDeadline)
				}
				exec[c] = res.ExecTime
			}))
		}
		out.paperErr = npbPaperErr(exec)
		return out
	}}, nil
}

// npbPaperErr is the mean absolute error of the normalized execution
// times against npbPaper, over the apps the grid ran.
func npbPaperErr(exec map[npbCell]sim.Time) float64 {
	var sum float64
	n := 0
	for _, paper := range npbPaper {
		key := npbCell{paper.app, scenario.Baseline, spin30B, 4}
		base := exec[key]
		key.mode = scenario.VScale
		vs := exec[key]
		if base == 0 || vs == 0 {
			continue
		}
		sum += math.Abs(float64(vs)/float64(base) - paper.norm)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// ---- httpd ----------------------------------------------------------

// httpdPaper holds the paper's peak reply rates (K/s) from Figure 14.
var httpdPaper = []struct {
	mode  scenario.Mode
	peakK float64
}{{scenario.Baseline, 4.7}, {scenario.VScale, 6.6}}

// httpdDrain lets in-flight requests finish after the load window.
const httpdDrain = 2 * sim.Second

// httpdOffered is how many requests httpd.Client.Run schedules for a
// rate and window: one per inter-arrival gap.
func httpdOffered(ratePerSec float64, window sim.Time) uint64 {
	gap := sim.Time(float64(sim.Second) / ratePerSec)
	return uint64(float64(window) / float64(gap))
}

func prepareHTTPD(seed uint64, sz size, p *probe) (batch, error) {
	type hcell struct {
		mode scenario.Mode
		rate float64
	}
	var grid []hcell
	for _, mode := range []scenario.Mode{scenario.Baseline, scenario.VScale} {
		for _, rate := range sz.httpdRates {
			grid = append(grid, hcell{mode, rate})
		}
	}
	setup := func(mode scenario.Mode) scenario.Setup {
		s := scenario.DefaultSetup()
		s.Mode = mode
		s.VMVCPUs = 4
		s.Seed = seed
		return s
	}
	// start builds one load level: host, server and client, the set-up
	// calls of a cell.
	start := func(c hcell, name string, p *probe) (*scenario.Built, *httpd.Server, *httpd.Client, error) {
		var b *scenario.Built
		_ = p.call("scenario.Build", name, func() error { b = scenario.Build(setup(c.mode)); return nil })
		b.Eng.SetObserver(p.observer())
		cfg := httpd.DefaultConfig()
		var srv *httpd.Server
		err := p.call("httpd.NewServer", name, func() (err error) {
			srv, err = httpd.NewServer(b.K, httpd.NewLink(b.Eng, cfg.LinkBps), cfg)
			return err
		})
		if err != nil {
			return nil, nil, nil, err
		}
		var client *httpd.Client
		_ = p.call("httpd.NewClient", name, func() error { client = httpd.NewClient(srv, sim.NewRand(7*seed)); return nil })
		return b, srv, client, nil
	}
	for _, c := range grid {
		if _, _, _, err := start(c, "", p); err != nil {
			return batch{}, err
		}
	}
	return batch{pass: func(p *probe) passResult {
		out := passResult{}
		peak := map[scenario.Mode]float64{}
		for _, c := range grid {
			name := fmt.Sprintf("httpd/%s/%gK", c.mode, c.rate)
			out.cells = append(out.cells, timeCell(p, name, func(r *cell) {
				b, srv, client, err := start(c, name, p)
				if err != nil {
					r.err = err
					return
				}
				warm := scenario.DefaultWarmup
				rate := c.rate * 1000
				r.err = p.call("sim.Engine.RunUntil", name, func() error {
					if err := runUntil(b, warm, p); err != nil {
						return err
					}
					client.Run(rate, sz.httpdWindow)
					return runUntil(b, warm+sz.httpdWindow+httpdDrain, p)
				})
				if r.err != nil {
					return
				}
				addHost(p, b)
				p.add("workload.httpd_replies", float64(srv.Replies()))
				p.add("workload.httpd_errors", float64(srv.Errors()))
				res := srv.Result(rate, sz.httpdWindow)
				r.simS = b.Eng.Now().Seconds()
				r.digest = digest(res)
				peak[c.mode] = math.Max(peak[c.mode], res.ReplyRate/1000)
				offered := httpdOffered(rate, sz.httpdWindow)
				switch {
				case srv.Err() != nil:
					r.err = srv.Err()
				case srv.Replies()+srv.Errors() != offered:
					r.err = fmt.Errorf("%s: %d replies + %d errors != %d offered", name, srv.Replies(), srv.Errors(), offered)
				case srv.Replies() > offered:
					r.err = fmt.Errorf("%s: %d replies > %d offered", name, srv.Replies(), offered)
				}
			}))
		}
		out.paperErr = httpdPaperErr(peak)
		return out
	}}, nil
}

// httpdPaperErr is the mean relative error of the peak reply rates
// against httpdPaper, over the modes swept.
func httpdPaperErr(peak map[scenario.Mode]float64) float64 {
	var sum float64
	n := 0
	for _, paper := range httpdPaper {
		if got, ok := peak[paper.mode]; ok {
			sum += math.Abs(got/paper.peakK - 1)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// ---- fleet and warmfork ---------------------------------------------

// fleetSLO is the per-request latency objective of both fleet workloads.
const fleetSLO = 50 * sim.Millisecond

// fleetDrain is the fleet's post-horizon drain, set explicitly so the
// simulated time a fleet covers is known here.
const fleetDrain = 2 * sim.Second

// lightTrace is the churn shape of both fleet workloads: one VM per
// host plus steady arrivals at light request rates, so the work is
// spread over many hosts rather than concentrated in a few busy ones.
func lightTrace(hosts int, horizon sim.Time) cluster.TraceConfig {
	tcfg := cluster.DefaultTraceConfig(horizon)
	tcfg.InitialVMs = hosts
	tcfg.ArrivalEvery = horizon / sim.Time(2*hosts)
	tcfg.RateChoices = []float64{50, 100, 200}
	return tcfg
}

// traceSeed seeds the churn trace of both fleet workloads. The trace
// is fixed, like a recorded one, and the run's seed drives every host's
// and VM's random streams (FleetConfig.Seed) instead: a trace drawn
// from the run's seed would change how many VMs arrive and at what
// rates, and with them the work of a pass by 5% from seed to seed.
const traceSeed = 1

// makeTrace generates a churn trace for a fleet of hosts and sends it
// through the text format, as a trace read from a file would arrive.
func makeTrace(tcfg cluster.TraceConfig, hosts int, p *probe) ([]cluster.Event, error) {
	var events []cluster.Event
	_ = p.call("cluster.GenTrace", "", func() error {
		events = cluster.GenTrace(tcfg, runner.DeriveSeed(traceSeed, hosts))
		return nil
	})
	var buf bytes.Buffer
	if err := p.call("cluster.FormatTrace", "", func() error { return cluster.FormatTrace(&buf, events) }); err != nil {
		return nil, err
	}
	var parsed []cluster.Event
	err := p.call("cluster.ParseTrace", "", func() (err error) {
		parsed, err = cluster.ParseTrace(&buf)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(parsed, events) {
		return nil, fmt.Errorf("trace changed in a FormatTrace/ParseTrace round trip")
	}
	return parsed, nil
}

// arrivals counts the VMs a fleet must place: the trace's arrivals
// before the horizon. GenTrace staggers its initial VMs 20 ms apart, so
// with many hosts some land past the horizon, where no fleet runs.
func arrivals(events []cluster.Event, horizon sim.Time) int {
	n := 0
	for _, e := range events {
		if e.Kind == cluster.EventArrive && e.At < horizon {
			n++
		}
	}
	return n
}

// fleetDigest hashes a fleet result; the histogram is hashed by its
// rendering and exact sum, since it is held by pointer.
func fleetDigest(r cluster.FleetResult) string {
	h := r.Hist
	r.Hist = nil
	if h == nil {
		return digest(fmt.Sprintf("%+v", r))
	}
	return digest(fmt.Sprintf("%+v", r), h.String(), h.Sum())
}

// checkFleet applies the invariants every fleet result must satisfy and
// books its layer counters.
func checkFleet(p *probe, r *cell, res cluster.FleetResult, placed int) {
	l := res.Load
	p.add("loadgen.offered", float64(l.Offered))
	p.add("loadgen.replies", float64(l.Replies))
	p.add("loadgen.errors", float64(l.Errors))
	p.add("loadgen.in_flight", float64(l.InFlight))
	p.add("cluster.placed", float64(res.Placed))
	p.add("cluster.reconfigs", float64(res.Reconfigs))
	p.add("elasticity.migrations", float64(res.Migrations))
	p.add("elasticity.replicas_created", float64(res.ReplicasCreated))
	p.add("elasticity.replica_failures", float64(res.ReplicaFailures))
	r.digest = fleetDigest(res)
	switch {
	case l.Offered != l.Replies+l.Errors+l.InFlight:
		r.err = fmt.Errorf("%s: offered %d != replies %d + errors %d + in flight %d", r.name, l.Offered, l.Replies, l.Errors, l.InFlight)
	case res.Placed != placed:
		r.err = fmt.Errorf("%s: placed %d VMs, trace has %d arrivals", r.name, res.Placed, placed)
	case res.Attainment < 0 || res.Attainment > 1 || math.IsNaN(res.Attainment):
		r.err = fmt.Errorf("%s: attainment %v outside [0, 1]", r.name, res.Attainment)
	}
}

// hostWall books the executor's per-host wall time of one fleet call.
func hostWall(p *probe, rep *runner.Report) {
	if rep != nil {
		p.add("cluster.host_sim_s", rep.CPU().Seconds())
	}
}

// fleetWorkers is the fleet executor's width: one worker per P, so the
// benchmark's GOMAXPROCS=1 children run the executor serially.
func fleetWorkers() int { return runtime.GOMAXPROCS(0) }

// countingWriter is the telemetry stream's destination: it keeps only
// the byte and record counts.
type countingWriter struct{ bytes, records int }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.bytes += len(b)
	w.records += bytes.Count(b, []byte{'\n'})
	return len(b), nil
}

func prepareFleet(seed uint64, sz size, p *probe) (batch, error) {
	events, err := makeTrace(lightTrace(sz.fleetHosts, sz.fleetHoriz), sz.fleetHosts, p)
	if err != nil {
		return batch{}, err
	}
	placed := arrivals(events, sz.fleetHoriz)
	recordOff := false
	return batch{pass: func(p *probe) passResult {
		out := passResult{paperErr: math.NaN()}
		stream := &countingWriter{}
		sink, err := telemetry.NewSink("", stream)
		for _, pol := range cluster.PolicyNames() {
			name := fmt.Sprintf("fleet/%dh/%s", sz.fleetHosts, pol)
			out.cells = append(out.cells, timeCell(p, name, func(r *cell) {
				if err != nil {
					r.err = err
					return
				}
				cfg := cluster.FleetConfig{
					Hosts:            sz.fleetHosts,
					PCPUsPerHost:     4,
					Policy:           pol,
					Seed:             runner.DeriveSeed(seed, sz.fleetHosts),
					Horizon:          sz.fleetHoriz,
					Drain:            fleetDrain,
					SLO:              fleetSLO,
					Workers:          fleetWorkers(),
					RecordPlacements: &recordOff,
					Telemetry:        telemetry.NewCollector(sink, false, "policy", pol),
				}
				if p.tracing {
					cfg.Report = &runner.Report{}
				}
				var res cluster.FleetResult
				r.err = p.call("cluster.RunFleet", name, func() (err error) {
					res, err = cluster.RunFleet(cfg, events)
					return err
				})
				if r.err == nil {
					r.err = cfg.Telemetry.Err()
				}
				if r.err != nil {
					return
				}
				hostWall(p, cfg.Report)
				r.simS = float64(sz.fleetHosts) * (sz.fleetHoriz + fleetDrain).Seconds()
				checkFleet(p, r, res, placed)
			}))
		}
		p.add("telemetry.bytes", float64(stream.bytes))
		p.add("telemetry.records", float64(stream.records))
		return out
	}}, nil
}

// forkServices are the warmfork trace's services: enough that the
// replica controller has anchors to scale across hosts.
var forkServices = []string{"web", "api", "db", "cache", "auth", "queue", "blob", "edge"}

func prepareWarmFork(seed uint64, sz size, p *probe) (batch, error) {
	tcfg := lightTrace(sz.forkHosts, sz.forkHoriz)
	tcfg.Services = forkServices
	tcfg.DirtyBpsChoices = []float64{50e6, 200e6, 800e6}
	events, err := makeTrace(tcfg, sz.forkHosts, p)
	if err != nil {
		return batch{}, err
	}
	placed := arrivals(events, sz.forkHoriz)
	recordOff := false
	base := cluster.FleetConfig{
		Hosts:            sz.forkHosts,
		PCPUsPerHost:     4,
		Seed:             runner.DeriveSeed(seed, sz.forkHosts),
		Horizon:          sz.forkHoriz,
		Epoch:            cluster.DefaultEpoch,
		Drain:            fleetDrain,
		SLO:              fleetSLO,
		Workers:          fleetWorkers(),
		WarmEpochs:       sz.forkWarm,
		RecordPlacements: &recordOff,
	}
	hosts := float64(sz.forkHosts)
	warmS := (sim.Time(sz.forkWarm) * cluster.DefaultEpoch).Seconds()
	forkS := (sz.forkHoriz + fleetDrain).Seconds() - warmS
	// vertical is the fork the check replays straight through.
	var vertical cluster.FleetResult

	return batch{
		pass: func(p *probe) passResult {
			out := passResult{paperErr: math.NaN()}
			var data []byte
			out.cells = append(out.cells, timeCell(p, "warmfork/capture", func(r *cell) {
				// The warm prefix is captured with the hybrid layer built, so
				// one snapshot forks into every elasticity mode.
				capCfg := base
				capCfg.Migration, capCfg.ReplicaSet, _ = cluster.ElasticityFor("hybrid")
				if p.tracing {
					capCfg.Report = &runner.Report{}
				}
				var cp *cluster.FleetCheckpoint
				r.err = p.call("cluster.CaptureWarmPrefix", r.name, func() (err error) {
					cp, err = cluster.CaptureWarmPrefix(capCfg, events)
					return err
				})
				if r.err != nil {
					return
				}
				hostWall(p, capCfg.Report)
				r.err = p.call("cluster.FleetCheckpoint.Encode", r.name, func() (err error) {
					data, err = cp.Encode()
					return err
				})
				r.simS = hosts * warmS
				r.digest = digest(cp.Digest)
				p.add("checkpoint.snapshot_bytes", float64(len(data)))
			}))
			for _, pol := range cluster.PolicyNames() {
				for _, mode := range []string{"none", "hybrid"} {
					name := fmt.Sprintf("warmfork/%dh/%s/%s", sz.forkHosts, pol, mode)
					out.cells = append(out.cells, timeCell(p, name, func(r *cell) {
						if data == nil {
							r.err = fmt.Errorf("%s: no snapshot to fork from", name)
							return
						}
						cfg := base
						cfg.Policy = pol
						cfg.Migration, cfg.ReplicaSet, r.err = cluster.ElasticityFor(mode)
						if p.tracing {
							cfg.Report = &runner.Report{}
						}
						var cp *cluster.FleetCheckpoint
						if r.err == nil {
							r.err = p.call("cluster.DecodeCheckpoint", name, func() (err error) {
								cp, err = cluster.DecodeCheckpoint(data)
								return err
							})
						}
						var res cluster.FleetResult
						if r.err == nil {
							r.err = p.call("cluster.RunFleetFork", name, func() (err error) {
								res, err = cluster.RunFleetFork(cfg, events, cp)
								return err
							})
						}
						if r.err != nil {
							return
						}
						hostWall(p, cfg.Report)
						r.simS = hosts * forkS
						checkFleet(p, r, res, placed)
						if pol == "vscale" && mode == "none" {
							vertical = res
						}
					}))
				}
			}
			return out
		},
		check: func(p *probe) []cell {
			name := fmt.Sprintf("warmfork/%dh/vscale/none/straight", sz.forkHosts)
			return []cell{timeCell(p, name, func(r *cell) {
				cfg := base
				cfg.Policy = "vscale"
				var res cluster.FleetResult
				r.err = p.call("cluster.RunFleet", name, func() (err error) {
					res, err = cluster.RunFleet(cfg, events)
					return err
				})
				if r.err != nil {
					return
				}
				r.simS = hosts * (sz.forkHoriz + fleetDrain).Seconds()
				r.digest = fleetDigest(res)
				if r.digest != fleetDigest(vertical) {
					r.err = fmt.Errorf("%s: straight run differs from its warm fork", name)
				}
			})}
		},
	}, nil
}
