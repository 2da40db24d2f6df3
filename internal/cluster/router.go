package cluster

import (
	"fmt"

	"vscale/internal/core"
	"vscale/internal/metrics"
	"vscale/internal/runner"
	"vscale/internal/sim"
)

// epochPlan precomputes the fleet's epoch grid and buckets the churn
// trace by epoch, so the executor and the router walk one timeline: epoch k
// spans [starts[k], ends[k]) and owns the events with At in that range.
// Events at or beyond the horizon are dropped (they could never fire).
type epochPlan struct {
	starts, ends []sim.Time
	events       [][]Event
	hasArrival   []bool
}

// planEpochs validates the trace (sorted, non-negative times, known
// kinds) and buckets it.
func planEpochs(cfg *FleetConfig, events []Event) (*epochPlan, error) {
	p := &epochPlan{}
	for start := sim.Time(0); start < cfg.Horizon; start += cfg.Epoch {
		end := start + cfg.Epoch
		if end > cfg.Horizon {
			end = cfg.Horizon
		}
		p.starts = append(p.starts, start)
		p.ends = append(p.ends, end)
	}
	p.events = make([][]Event, len(p.starts))
	p.hasArrival = make([]bool, len(p.starts))
	k := 0
	for i, ev := range events {
		if i > 0 && ev.At < events[i-1].At {
			return nil, fmt.Errorf("cluster: churn trace not sorted at event %d", i)
		}
		if ev.At < 0 {
			return nil, fmt.Errorf("cluster: event for %s at %v precedes epoch start %v", ev.VM, ev.At, sim.Time(0))
		}
		switch ev.Kind {
		case EventArrive, EventPhase, EventDepart:
		default:
			return nil, fmt.Errorf("cluster: unknown event kind %v", ev.Kind)
		}
		if err := sim.CheckRate(ev.RateRPS); err != nil {
			return nil, fmt.Errorf("cluster: event for %s at %v: %v", ev.VM, ev.At, err)
		}
		if ev.At >= cfg.Horizon {
			continue
		}
		for ev.At >= p.ends[k] {
			k++
		}
		p.events[k] = append(p.events[k], ev)
		if ev.Kind == EventArrive {
			p.hasArrival[k] = true
		}
	}
	return p, nil
}

// epochs returns the number of churn epochs (the drain is one more
// executor step past them).
func (p *epochPlan) epochs() int { return len(p.starts) }

// baseFor returns the snapshot boundary epoch k's arrivals are placed
// with.
func baseFor(k int) int {
	if b := k - lagEpochs; b > 0 {
		return b
	}
	return 0
}

// needBoundary reports whether some arrival epoch places with boundary
// b's snapshot — the executor only publishes (and retains) needed
// boundaries. Boundary 0 is the empty initial fleet and is never
// published.
func (p *epochPlan) needBoundary(b int) bool {
	if b <= 0 || b >= p.epochs() {
		return false
	}
	k := b + lagEpochs
	return k < p.epochs() && p.hasArrival[k]
}

// retained lists, ascending, the published boundaries a fleet parked at
// boundary b still owes the router: the needed ones in
// [max(1, b-lagEpochs), b]. Older needed boundaries were consumed by
// arrival epochs before b; boundary 0, the empty fleet, is implicit.
// A checkpoint at b carries exactly these snapshots.
func (p *epochPlan) retained(b int) []int {
	var out []int
	for x := max(1, b-lagEpochs); x <= b; x++ {
		if p.needBoundary(x) {
			out = append(out, x)
		}
	}
	return out
}

// routedEvent is one churn event bound for a specific host, with the
// arrival's derived VM seed resolved at routing time.
type routedEvent struct {
	ev   Event
	seed uint64
}

// placedProbe remembers one recent placement for staleness correction:
// a VM admitted in epoch `epoch` that a base snapshot older than that
// epoch cannot see yet.
type placedProbe struct {
	epoch int
	vcpus int
	stat  core.VMStat
}

// fleetRouter routes churn epochs onto hosts, in trace order, with
// bounded-staleness placement: an arrival in epoch k is placed with the
// fleet snapshot from boundary base(k) = max(0, k-lagEpochs), corrected
// with probes for every VM placed in epochs [base(k), k] (generalising
// the original same-epoch probe accumulation) and with the
// committed-vCPU tie-break corrected for placements in [base(k), k).
// The router's decisions are a pure function of the trace, the
// snapshots and the bound, never of host pacing — which is what keeps
// results byte-identical across worker counts.
type fleetRouter struct {
	cfg    *FleetConfig
	plan   *epochPlan
	res    *FleetResult
	record bool

	owner map[string]int
	// probes[i] / committedExtra[i] are host i's staleness corrections;
	// probeLog keeps the placement epochs for pruning as base advances.
	probeLog       [][]placedProbe
	probes         [][]core.VMStat
	committedExtra []int
	// scratch is pickHost's working memory, reused across arrivals.
	scratch pickScratch
	// telHist is collectTelemetry's reusable fleet-wide merge target,
	// allocated once per run instead of once per collection epoch.
	telHist *metrics.Histogram
	// el, when non-nil, is the elasticity layer (migration + replica
	// sets); the router feeds it every routed event.
	el *elasticity
}

func newFleetRouter(cfg *FleetConfig, plan *epochPlan, res *FleetResult) *fleetRouter {
	var telHist *metrics.Histogram
	if cfg.Telemetry != nil {
		telHist = metrics.NewHistogram(metrics.DefaultLatencyBuckets())
	}
	rt := &fleetRouter{
		cfg:            cfg,
		plan:           plan,
		res:            res,
		record:         cfg.recordPlacements(),
		owner:          map[string]int{},
		probeLog:       make([][]placedProbe, cfg.Hosts),
		probes:         make([][]core.VMStat, cfg.Hosts),
		committedExtra: make([]int, cfg.Hosts),
		telHist:        telHist,
	}
	rt.el = newElasticity(cfg, plan, rt, res)
	return rt
}

// recordPlacement appends a staleness-correction probe for a VM the
// elasticity layer just committed to a host at boundary `epoch` — the
// same bookkeeping an arrival gets, so later arrivals placing with
// stale base snapshots see migrated VMs and replicas too.
func (rt *fleetRouter) recordPlacement(host, epoch, vcpus int) {
	p := placedProbe{
		epoch: epoch,
		vcpus: vcpus,
		stat:  probeStat(vcpus, rt.cfg.PCPUsPerHost, rt.cfg.Epoch),
	}
	rt.probeLog[host] = append(rt.probeLog[host], p)
	rt.probes[host] = append(rt.probes[host], p.stat)
}

// routeEpoch routes plan epoch k. stats/committed are the per-host
// fleet snapshot at boundary baseFor(k) (nil for an epoch without
// arrivals — only arrivals read them). It returns one batch per host
// (nil slices for idle hosts), or nil when the epoch has no events.
// Counters and placements accumulate into the shared FleetResult; the
// caller delivers the batches before the hosts run the epoch.
func (rt *fleetRouter) routeEpoch(k int, stats [][]core.VMStat, committed []int) ([][]routedEvent, error) {
	evs := rt.plan.events[k]
	if len(evs) == 0 {
		return nil, nil
	}
	var batches [][]routedEvent
	if rt.plan.hasArrival[k] {
		rt.advanceBase(baseFor(k), k)
	}
	for _, ev := range evs {
		switch ev.Kind {
		case EventArrive:
			hIdx := pickHost(rt.cfg.PCPUsPerHost, rt.cfg.Epoch, stats, rt.probes, committed, rt.committedExtra, ev.VCPUs, &rt.scratch)
			// The VM's seed comes from its arrival index in the trace,
			// so its RNG streams (and hence the offered load) are the
			// same wherever it lands and whatever the policy.
			seed := runner.DeriveSeed(rt.cfg.Seed^0xc2b2ae3d27d4eb4f, rt.res.Placed)
			if batches == nil {
				batches = make([][]routedEvent, rt.cfg.Hosts)
			}
			batches[hIdx] = append(batches[hIdx], routedEvent{ev: ev, seed: seed})
			rt.owner[ev.VM] = hIdx
			rt.probeLog[hIdx] = append(rt.probeLog[hIdx], placedProbe{
				epoch: k,
				vcpus: ev.VCPUs,
				stat:  probeStat(ev.VCPUs, rt.cfg.PCPUsPerHost, rt.cfg.Epoch),
			})
			rt.probes[hIdx] = append(rt.probes[hIdx], rt.probeLog[hIdx][len(rt.probeLog[hIdx])-1].stat)
			rt.res.Placed++
			if rt.record {
				rt.res.Placements = append(rt.res.Placements, Placement{VM: ev.VM, Host: hIdx})
			}
			if rt.el != nil {
				rt.el.observeEvent(ev, hIdx, k)
			}
		case EventPhase:
			if hIdx, ok := rt.owner[ev.VM]; ok {
				if batches == nil {
					batches = make([][]routedEvent, rt.cfg.Hosts)
				}
				batches[hIdx] = append(batches[hIdx], routedEvent{ev: ev})
				rt.res.PhaseChanges++
				if rt.el != nil {
					rt.el.observeEvent(ev, hIdx, k)
				}
			}
		case EventDepart:
			if hIdx, ok := rt.owner[ev.VM]; ok {
				if batches == nil {
					batches = make([][]routedEvent, rt.cfg.Hosts)
				}
				batches[hIdx] = append(batches[hIdx], routedEvent{ev: ev})
				delete(rt.owner, ev.VM)
				rt.res.Departed++
				if rt.el != nil {
					rt.el.observeEvent(ev, hIdx, k)
				}
			}
		default:
			return nil, fmt.Errorf("cluster: unknown event kind %v", ev.Kind)
		}
	}
	return batches, nil
}

// advanceBase prunes probes older than the new base boundary (those
// placements are visible in the base snapshot itself now) and
// recomputes the committed-vCPU corrections: placements from epochs
// [base, k) are running by epoch k but invisible to the base snapshot,
// so they count toward the tie-break; same-epoch placements do not
// (they are probes only).
func (rt *fleetRouter) advanceBase(base, k int) {
	for i := range rt.probeLog {
		log := rt.probeLog[i][:0]
		probes := rt.probes[i][:0]
		extra := 0
		for _, p := range rt.probeLog[i] {
			if p.epoch < base {
				continue
			}
			log = append(log, p)
			probes = append(probes, p.stat)
			if p.epoch < k {
				extra += p.vcpus
			}
		}
		rt.probeLog[i] = log
		rt.probes[i] = probes
		rt.committedExtra[i] = extra
	}
}
