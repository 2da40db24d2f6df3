// Package cluster simulates a fleet of independent Xen hosts under VM
// churn: a seeded lifecycle trace arrives, departs and re-phases VMs; a
// placement control plane admits each arrival to the host where the
// paper's Algorithm 1 predicts the most CPU extendability; and every VM
// serves open-loop httpd load whose per-request latency feeds fleet-wide
// SLO accounting. Each host owns a private sim.Engine, so hosts fan out
// across the executor's workers while the whole fleet stays
// deterministic for a fixed seed.
package cluster

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"vscale/internal/guest"
	"vscale/internal/sim"
)

// EventKind classifies one churn-trace event.
type EventKind int

// Churn event kinds, in the order they may occur for one VM.
const (
	// EventArrive creates a VM (vCPU count + initial request rate).
	EventArrive EventKind = iota
	// EventPhase changes a VM's offered request rate (workload phase).
	EventPhase
	// EventDepart retires a VM.
	EventDepart
)

func (k EventKind) String() string {
	switch k {
	case EventArrive:
		return "arrive"
	case EventPhase:
		return "phase"
	case EventDepart:
		return "depart"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of a churn trace.
type Event struct {
	At      sim.Time
	Kind    EventKind
	VM      string
	VCPUs   int     // arrive only
	RateRPS float64 // arrive and phase
	// Service groups VMs for horizontal autoscaling (arrive only,
	// optional): VMs sharing a service name form one ReplicaSet-style
	// scaling group. Empty means the VM is its own singleton service.
	Service string
	// DirtyBps is the VM's dirty-page rate hint at full utilisation in
	// bytes/s (arrive only, optional): the live-migration planner scales
	// it by observed CPU consumption. Zero means the fleet default.
	DirtyBps float64
}

// TraceConfig parameterises GenTrace.
type TraceConfig struct {
	// Horizon bounds the trace: no event is emitted at or past it. It
	// also scales the per-VM lifecycle: each VM lives a uniform
	// Horizon/3 to Horizon (a VM whose departure would land past the
	// horizon simply lives to the end), and changes workload phase
	// every Horizon/6 on average (exponential).
	Horizon sim.Time
	// InitialVMs arrive staggered shortly after t=0.
	InitialVMs int
	// ArrivalEvery is the mean inter-arrival time of later VMs
	// (exponential); zero disables later arrivals.
	ArrivalEvery sim.Time
	// VCPUChoices and RateChoices are drawn uniformly per arrival/phase.
	VCPUChoices []int
	RateChoices []float64
	// Services, when non-empty, assigns each arriving VM a service
	// drawn uniformly from this list (see Event.Service). Empty keeps
	// every VM a singleton and the trace bytes identical to older
	// configs.
	Services []string
	// DirtyBpsChoices, when non-empty, draws each arriving VM's
	// dirty-page rate hint uniformly (see Event.DirtyBps).
	DirtyBpsChoices []float64
}

// DefaultTraceConfig returns a churn mix sized for the cluster
// experiment: a few initial VMs plus steady arrivals, minute-scale
// horizon compressed to seconds for simulation.
func DefaultTraceConfig(horizon sim.Time) TraceConfig {
	return TraceConfig{
		Horizon:      horizon,
		InitialVMs:   4,
		ArrivalEvery: horizon / 8,
		VCPUChoices:  []int{2, 4},
		RateChoices:  []float64{500, 1500, 3000},
	}
}

// GenTrace produces a deterministic churn trace from cfg and seed:
// identical inputs yield identical traces, so every policy of an
// experiment can be driven by the same VM lifecycle.
func GenTrace(cfg TraceConfig, seed uint64) []Event {
	if cfg.Horizon <= 0 {
		panic("cluster: GenTrace needs a positive horizon")
	}
	if len(cfg.VCPUChoices) == 0 || len(cfg.RateChoices) == 0 {
		panic("cluster: GenTrace needs vCPU and rate choices")
	}
	rand := sim.NewRand(seed)
	phaseEvery := cfg.Horizon / 6
	var events []Event
	seq := 0

	addVM := func(at sim.Time) {
		name := fmt.Sprintf("vm%d", seq)
		seq++
		ev := Event{
			At:      at,
			Kind:    EventArrive,
			VM:      name,
			VCPUs:   cfg.VCPUChoices[rand.Intn(len(cfg.VCPUChoices))],
			RateRPS: cfg.RateChoices[rand.Intn(len(cfg.RateChoices))],
		}
		// The elasticity hints draw only when configured, so configs
		// without them keep their exact historical traces.
		if len(cfg.Services) > 0 {
			ev.Service = cfg.Services[rand.Intn(len(cfg.Services))]
		}
		if len(cfg.DirtyBpsChoices) > 0 {
			ev.DirtyBps = cfg.DirtyBpsChoices[rand.Intn(len(cfg.DirtyBpsChoices))]
		}
		events = append(events, ev)
		depart := at + rand.Duration(cfg.Horizon/3, cfg.Horizon)
		if phaseEvery > 0 {
			for pt := at + rand.ExpDuration(phaseEvery); pt < depart && pt < cfg.Horizon; pt += rand.ExpDuration(phaseEvery) {
				events = append(events, Event{
					At:      pt,
					Kind:    EventPhase,
					VM:      name,
					RateRPS: cfg.RateChoices[rand.Intn(len(cfg.RateChoices))],
				})
			}
		}
		if depart < cfg.Horizon {
			events = append(events, Event{At: depart, Kind: EventDepart, VM: name})
		}
	}

	for i := 0; i < cfg.InitialVMs; i++ {
		// Staggered boot so initial VMs do not all arrive at one instant.
		addVM(sim.Time(i+1) * 20 * sim.Millisecond)
	}
	if cfg.ArrivalEvery > 0 {
		for at := rand.ExpDuration(cfg.ArrivalEvery); at < cfg.Horizon; at += rand.ExpDuration(cfg.ArrivalEvery) {
			addVM(at)
		}
	}

	// Stable sort: ties keep generation order, which itself is
	// deterministic, so the trace is a pure function of (cfg, seed).
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

// traceHeader identifies the text format of FormatTrace/ParseTrace.
const traceHeader = "# vscale-churn/v1"

// FormatTrace renders a trace in the vscale-churn/v1 text format:
//
//	# vscale-churn/v1
//	<at_ns> arrive <vm> vcpus=<n> rate=<rps> [service=<name>] [dirty=<bps>]
//	<at_ns> phase <vm> rate=<rps>
//	<at_ns> depart <vm>
//
// Timestamps are integral nanoseconds of virtual time (sim.Time raw
// units), so formatting and parsing round-trip exactly. The optional
// arrive fields carry the elasticity hints (service grouping for
// horizontal autoscaling, dirty-page rate for live migration); they are
// omitted when zero, so traces without them render byte-identically to
// the original format.
func FormatTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, traceHeader)
	for _, e := range events {
		ns := int64(e.At)
		switch e.Kind {
		case EventArrive:
			fmt.Fprintf(bw, "%d arrive %s vcpus=%d rate=%g", ns, e.VM, e.VCPUs, e.RateRPS)
			if e.Service != "" {
				fmt.Fprintf(bw, " service=%s", e.Service)
			}
			if e.DirtyBps != 0 {
				fmt.Fprintf(bw, " dirty=%g", e.DirtyBps)
			}
			fmt.Fprintln(bw)
		case EventPhase:
			fmt.Fprintf(bw, "%d phase %s rate=%g\n", ns, e.VM, e.RateRPS)
		case EventDepart:
			fmt.Fprintf(bw, "%d depart %s\n", ns, e.VM)
		default:
			return fmt.Errorf("cluster: cannot format event kind %v", e.Kind)
		}
	}
	return bw.Flush()
}

// ParseTrace reads the vscale-churn/v1 text format back into events.
// Beyond the per-line grammar it validates the trace semantically —
// timestamps non-negative and sorted, every VM arriving exactly once
// before any of its phase/depart events, positive vCPU counts, request
// rates that sim.CheckRate accepts and positive finite dirty rates — so
// a malformed hand-edited trace fails here with a line number instead
// of corrupting (or panicking) a fleet run.
func ParseTrace(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	lineno := 0
	var events []Event
	arrived := map[string]bool{} // ever arrived (names key per-VM state downstream)
	alive := map[string]bool{}   // arrived and not yet departed
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if lineno == 1 {
			if line != traceHeader {
				return nil, fmt.Errorf("cluster: line 1: want header %q, got %q", traceHeader, line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("cluster: line %d: too few fields", lineno)
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: line %d: bad timestamp: %v", lineno, err)
		}
		if ns < 0 {
			return nil, fmt.Errorf("cluster: line %d: negative timestamp %d", lineno, ns)
		}
		if len(events) > 0 && sim.Time(ns) < events[len(events)-1].At {
			return nil, fmt.Errorf("cluster: line %d: timestamp %d before previous event at %d (trace not sorted)",
				lineno, ns, int64(events[len(events)-1].At))
		}
		ev := Event{At: sim.Time(ns), VM: fields[2]}
		kv := func(s, key string) (string, error) {
			if !strings.HasPrefix(s, key+"=") {
				return "", fmt.Errorf("cluster: line %d: want %s=..., got %q", lineno, key, s)
			}
			return strings.TrimPrefix(s, key+"="), nil
		}
		switch fields[1] {
		case "arrive":
			ev.Kind = EventArrive
			if len(fields) < 5 || len(fields) > 7 {
				return nil, fmt.Errorf("cluster: line %d: arrive needs vcpus= and rate= (plus optional service=/dirty=)", lineno)
			}
			vs, err := kv(fields[3], "vcpus")
			if err != nil {
				return nil, err
			}
			if ev.VCPUs, err = strconv.Atoi(vs); err != nil {
				return nil, fmt.Errorf("cluster: line %d: bad vcpus: %v", lineno, err)
			}
			if ev.VCPUs <= 0 || ev.VCPUs > guest.MaxVCPUs {
				return nil, fmt.Errorf("cluster: line %d: VM %s arrives with %d vcpus, want 1..%d", lineno, ev.VM, ev.VCPUs, guest.MaxVCPUs)
			}
			rs, err := kv(fields[4], "rate")
			if err != nil {
				return nil, err
			}
			if ev.RateRPS, err = strconv.ParseFloat(rs, 64); err != nil {
				return nil, fmt.Errorf("cluster: line %d: bad rate: %v", lineno, err)
			}
			// Optional elasticity hints, in any order, at most once each.
			for _, f := range fields[5:] {
				switch {
				case strings.HasPrefix(f, "service="):
					if ev.Service != "" {
						return nil, fmt.Errorf("cluster: line %d: duplicate service=", lineno)
					}
					ev.Service = strings.TrimPrefix(f, "service=")
					if ev.Service == "" {
						return nil, fmt.Errorf("cluster: line %d: empty service name", lineno)
					}
				case strings.HasPrefix(f, "dirty="):
					if ev.DirtyBps != 0 {
						return nil, fmt.Errorf("cluster: line %d: duplicate dirty=", lineno)
					}
					if ev.DirtyBps, err = strconv.ParseFloat(strings.TrimPrefix(f, "dirty="), 64); err != nil {
						return nil, fmt.Errorf("cluster: line %d: bad dirty rate: %v", lineno, err)
					}
					if !(ev.DirtyBps > 0) || math.IsInf(ev.DirtyBps, 1) {
						return nil, fmt.Errorf("cluster: line %d: dirty rate must be positive and finite, got %g", lineno, ev.DirtyBps)
					}
				default:
					return nil, fmt.Errorf("cluster: line %d: unknown arrive field %q (want service= or dirty=)", lineno, f)
				}
			}
			if arrived[ev.VM] {
				return nil, fmt.Errorf("cluster: line %d: VM %s arrives twice", lineno, ev.VM)
			}
			arrived[ev.VM] = true
			alive[ev.VM] = true
		case "phase":
			ev.Kind = EventPhase
			if len(fields) != 4 {
				return nil, fmt.Errorf("cluster: line %d: phase needs rate=", lineno)
			}
			rs, err := kv(fields[3], "rate")
			if err != nil {
				return nil, err
			}
			if ev.RateRPS, err = strconv.ParseFloat(rs, 64); err != nil {
				return nil, fmt.Errorf("cluster: line %d: bad rate: %v", lineno, err)
			}
			if !alive[ev.VM] {
				return nil, fmt.Errorf("cluster: line %d: phase for VM %s, which has not arrived", lineno, ev.VM)
			}
		case "depart":
			ev.Kind = EventDepart
			if len(fields) != 3 {
				return nil, fmt.Errorf("cluster: line %d: depart takes no arguments", lineno)
			}
			if !alive[ev.VM] {
				return nil, fmt.Errorf("cluster: line %d: depart for VM %s, which has not arrived", lineno, ev.VM)
			}
			delete(alive, ev.VM)
		default:
			return nil, fmt.Errorf("cluster: line %d: unknown event %q", lineno, fields[1])
		}
		if err := sim.CheckRate(ev.RateRPS); err != nil {
			return nil, fmt.Errorf("cluster: line %d: %v", lineno, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if lineno == 0 {
		return nil, fmt.Errorf("cluster: empty trace (missing %q header)", traceHeader)
	}
	return events, nil
}
