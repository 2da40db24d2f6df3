package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"vscale/internal/sim"
)

// span is one timed call into the program, recorded from the
// benchmark's side of the boundary.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Cell   string
	Start  time.Time
	End    time.Time
}

// probe collects what one pass learns about the layers: the wall time
// of every public call by name, layer counters summed over cells, and —
// when tracing — spans and simulator event counts. Untraced passes keep
// only the call times and counters, which cost a clock read per call.
type probe struct {
	tracing bool
	origin  time.Time

	calls  map[string]time.Duration // summed wall per public call name
	counts map[string]float64       // layer counters, summed over cells
	// events counts executed simulator events by layer; plain fields,
	// because the observer runs on every event.
	events struct{ xen, guest, workload uint64 }

	spans []span
	stack []int // open span IDs, innermost last
}

func newProbe(tracing bool) *probe {
	return &probe{
		tracing: tracing,
		origin:  time.Now(),
		calls:   map[string]time.Duration{},
		counts:  map[string]float64{},
	}
}

// call times fn as the public call name made for cell.
func (p *probe) call(name, cell string, fn func() error) error {
	end := p.open(name, cell)
	err := fn()
	p.calls[name] += end()
	return err
}

// open starts a span and returns the function that closes it and
// reports its duration. Spans nest in call order.
func (p *probe) open(name, cell string) func() time.Duration {
	start := time.Now()
	if !p.tracing {
		return func() time.Duration { return time.Since(start) }
	}
	id := len(p.spans) + 1
	parent := 0
	if n := len(p.stack); n > 0 {
		parent = p.stack[n-1]
	}
	p.spans = append(p.spans, span{ID: id, Parent: parent, Name: name, Cell: cell, Start: start})
	p.stack = append(p.stack, id)
	return func() time.Duration {
		now := time.Now()
		p.spans[id-1].End = now
		p.stack = p.stack[:len(p.stack)-1]
		return now.Sub(start)
	}
}

// add accumulates a layer counter.
func (p *probe) add(name string, v float64) { p.counts[name] += v }

// max keeps the largest value seen for a layer gauge.
func (p *probe) max(name string, v float64) {
	if v > p.counts[name] {
		p.counts[name] = v
	}
}

// observer returns an engine observer that counts executed events by
// the first segment of their label ("xen/tick" counts as xen), or nil
// when not tracing: the observer runs on every event, so the untraced
// passes that give the end-to-end numbers never install one.
func (p *probe) observer() sim.Observer {
	if !p.tracing {
		return nil
	}
	return func(_ sim.Time, label string) {
		i := strings.IndexByte(label, '/')
		if i < 0 {
			return
		}
		switch label[:i] {
		case "xen":
			p.events.xen++
		case "guest":
			p.events.guest++
		case "httpd":
			p.events.workload++
		}
	}
}

// chromeEvent is one Chrome trace-event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeSpans writes the spans as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto.
func (p *probe) writeSpans(path, workload string) error {
	events := make([]chromeEvent, 0, len(p.spans))
	for _, s := range p.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start.Sub(p.origin).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "workload": workload, "cell": s.Cell,
			},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// heapSampler polls the live heap every few milliseconds from its own
// goroutine, because the peak is reached inside calls the benchmark
// cannot pause. It runs only in the traced pass.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}
