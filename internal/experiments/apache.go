package experiments

import (
	"fmt"

	"vscale/internal/report"
	"vscale/internal/runner"
	"vscale/internal/scenario"
	"vscale/internal/sim"
	"vscale/internal/trace"
	"vscale/internal/workload/httpd"
)

// ApachePoint is one load level of one configuration.
type ApachePoint struct {
	RateK     float64 // offered rate, K requests/s
	ReplyK    float64 // reply rate, K/s
	ConnMs    float64 // average connection time
	RespMs    float64 // average response time
	Errors    uint64
	RxIntPerS float64
}

// ApacheResult holds the Figure 14 sweep.
type ApacheResult struct {
	VMVCPUs int
	Window  sim.Time
	// Points[mode] is ordered by offered rate.
	Points map[scenario.Mode][]ApachePoint
	Rates  []float64 // offered rates in K/s
}

// Apache sweeps the request rate for each configuration (Figure 14),
// fanning the independent (mode, rate) load levels across the runner's
// worker pool. rates are in K requests/s; window is the measurement
// duration (the paper uses 1 minute per point).
func Apache(opts runner.Options, rates []float64, window sim.Time, modes []scenario.Mode) (ApacheResult, error) {
	if rates == nil {
		rates = []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	if modes == nil {
		modes = scenario.Modes()
	}
	type cell struct {
		mode scenario.Mode
		rate float64
	}
	var cells []cell
	for _, m := range modes {
		for _, rate := range rates {
			cells = append(cells, cell{m, rate})
		}
	}
	points, err := runner.Run(opts, len(cells), func(ctx runner.Context) (ApachePoint, error) {
		c := cells[ctx.Index]
		p, _, err := apacheOnce(c.mode, c.rate, window, ctx.Tracer)
		return p, err
	})
	if err != nil {
		return ApacheResult{}, err
	}
	out := ApacheResult{VMVCPUs: 4, Window: window, Rates: rates,
		Points: make(map[scenario.Mode][]ApachePoint)}
	for i, c := range cells {
		out.Points[c.mode] = append(out.Points[c.mode], points[i])
	}
	return out, nil
}

// apacheOnce runs one load level. It also returns the finished
// scenario, whose engine accounting the pinned-cell test reads.
func apacheOnce(mode scenario.Mode, rateK float64, window sim.Time, tr *trace.Tracer) (ApachePoint, *scenario.Built, error) {
	s := scenario.DefaultSetup()
	s.Mode = mode
	s.VMVCPUs = 4
	s.Tracer = tr
	b := scenario.Build(s)

	cfg := httpd.DefaultConfig()
	link := httpd.NewLink(b.Eng, cfg.LinkBps)
	srv, err := httpd.NewServer(b.K, link, cfg)
	if err != nil {
		return ApachePoint{}, nil, err
	}
	client := httpd.NewClient(srv, sim.NewRand(7))

	// Warm up, then measure for the window plus drain time.
	warm := scenario.DefaultWarmup
	if err := b.Eng.RunUntil(warm); err != nil {
		return ApachePoint{}, nil, err
	}
	if err := client.Run(rateK*1000, window); err != nil {
		return ApachePoint{}, nil, err
	}
	if err := b.Eng.RunUntil(warm + window + 2*sim.Second); err != nil {
		return ApachePoint{}, nil, err
	}
	b.FinishTrace()
	res := srv.Result(rateK*1000, window)
	return ApachePoint{
		RateK:     rateK,
		ReplyK:    res.ReplyRate / 1000,
		ConnMs:    res.AvgConnMs,
		RespMs:    res.AvgRespMs,
		Errors:    res.Errors,
		RxIntPerS: float64(res.RxInterrupts) / window.Seconds(),
	}, b, nil
}

// Render produces the three Figure 14 sub-tables (reply rate,
// connection time, response time).
func (r ApacheResult) Render() string {
	order := []scenario.Mode{scenario.Baseline, scenario.VScale, scenario.PVLock, scenario.VScalePVLock}
	var out string
	for _, metric := range []struct {
		name string
		get  func(ApachePoint) float64
	}{
		{"(a) average reply rate (K/s, higher is better)", func(p ApachePoint) float64 { return p.ReplyK }},
		{"(b) average connection time (ms, lower is better)", func(p ApachePoint) float64 { return p.ConnMs }},
		{"(c) average response time (ms, lower is better)", func(p ApachePoint) float64 { return p.RespMs }},
	} {
		t := report.NewTable("Figure 14"+metric.name,
			"req rate (K/s)", "Xen/Linux", "vScale", "Xen/Linux+pvlock", "vScale+pvlock")
		for i, rate := range r.Rates {
			row := []string{fmt.Sprintf("%g", rate)}
			for _, m := range order {
				pts, ok := r.Points[m]
				if !ok || i >= len(pts) {
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%.2f", metric.get(pts[i])))
			}
			t.AddRow(row...)
		}
		out += t.String() + "\n"
	}
	return out
}

// PeakReply returns the maximum reply rate (K/s) for a mode.
func (r ApacheResult) PeakReply(mode scenario.Mode) float64 {
	var peak float64
	for _, p := range r.Points[mode] {
		if p.ReplyK > peak {
			peak = p.ReplyK
		}
	}
	return peak
}
