package cluster

import (
	"fmt"
	"sync"
	"time"

	"vscale/internal/core"
	"vscale/internal/runner"
)

// The fleet executor.
//
// Every host is a queue on a persistent runner.Pool whose workers
// advance it through as many epochs as its gates allow; a host that
// cannot progress parks (returns to the pool) and is woken when a
// shared frontier moves. Virtual time is decoupled across hosts up to
// the lag bound; the only global synchronization points are the ones
// with genuine cross-host meaning:
//
//   - Routing: epoch k's churn batch must be delivered before a host
//     runs it, and an arrival epoch's placement needs the fleet
//     snapshot from boundary baseFor(k) — so the router waits for the
//     slowest host only up to that stale boundary, and hosts wait for
//     the routing frontier.
//   - The lag bound: no host runs more than lagEpochs epochs ahead of
//     the slowest, bounding snapshot memory and placement staleness.
//   - The boundary barrier: a boundary with control-plane work (a
//     telemetry collection epoch, an elasticity pass) waits for every
//     host to park there, does that work in one fixed order and only
//     then lets the hosts run their own boundary work. A collector or
//     the elasticity layer makes every boundary a barrier, so the
//     executor paces epoch by epoch while either is on.
//
// Everything a host does between gates — scheduling its batch, running
// its engine, snapshotting, its per-boundary policy pass — is host-
// local and happens on its own timeline in one fixed order, and the
// router reads only published snapshots. That is why the FleetResult is
// byte-identical for every worker count and pacing; a single-goroutine
// serial reference in the tests pins it.
type asyncFleet struct {
	cfg   *FleetConfig
	plan  *epochPlan
	hosts []*Host
	pols  []ScalingPolicy
	rt    *fleetRouter
	res   *FleetResult
	lead  int // run-ahead bound (0 while a collector or elasticity is on)
	last  int // plan.epochs(); epoch index `last` is the drain step
	// telFrom is the first boundary with a collection epoch (the warm
	// boundary when a warm prefix is configured); stop, when > 0, is the
	// boundary the run ends at with every host parked.
	telFrom int
	stop    int

	pool *runner.Pool

	mu   sync.Mutex
	cond *sync.Cond // the router's wait channel; hosts park by returning
	// routed is the routing frontier: epochs [0, routed) have their
	// batches delivered.
	routed int
	// done[i] counts host i's completed epochs (last+1 = drained);
	// minDone/minCount track the minimum incrementally.
	done     []int
	minDone  int
	minCount int
	// pendingPolicy[i] marks host i parked at boundary done[i], past the
	// warm boundary, with its policy pass still owed.
	pendingPolicy []bool
	// ctlDone is the last boundary whose control-plane barrier has
	// completed: a policy pass at a gated boundary k waits until
	// ctlDone >= k. A host cannot run epoch k before the barrier either:
	// the router runs boundary k's barrier before routing epoch k.
	ctlDone int
	// batches[i][k] is host i's routed churn for epoch k; written by the
	// router before it publishes routed = k+1.
	batches [][][]routedEvent
	// snaps[i] holds host i's published boundary snapshots, only for
	// boundaries some arrival epoch will place with (plan.needBoundary);
	// the router consumes each exactly once.
	snaps []map[int]hostSnap

	failErr   error
	failEpoch int
	failHost  int

	hostWall []time.Duration
}

// hostSnap is one host's published epoch-boundary state, the
// bounded-staleness input to placement.
type hostSnap struct {
	stats     []core.VMStat
	committed int
}

// testEpochHook, when non-nil, observes (and may slow down) a host
// about to run an epoch — a test seam for skewing host pacing. Set and
// cleared only while no fleet is running.
var testEpochHook func(host, epoch int)

// runBoundedLag executes the fleet; see asyncFleet. start is the first
// epoch to run (the warm boundary when forking from a checkpoint);
// pre preloads the retained placement snapshots a restored run still
// owes the router. A positive stop ends the run with every host parked
// at that boundary — quiesced and, at the warm boundary, still unarmed
// — and returns the fleet's capture there: the warm-prefix exit
// CaptureWarmPrefix uses.
func runBoundedLag(cfg *FleetConfig, plan *epochPlan, hosts []*Host, pols []ScalingPolicy, rt *fleetRouter, res *FleetResult, start, stop int, pre []RingBoundary) (*FleetCheckpoint, error) {
	f := &asyncFleet{
		cfg:           cfg,
		plan:          plan,
		hosts:         hosts,
		pols:          pols,
		rt:            rt,
		res:           res,
		lead:          lagEpochs,
		last:          plan.epochs(),
		telFrom:       telemetryFrom(cfg),
		stop:          stop,
		routed:        start,
		done:          make([]int, len(hosts)),
		minDone:       start,
		minCount:      len(hosts),
		pendingPolicy: make([]bool, len(hosts)),
		batches:       make([][][]routedEvent, len(hosts)),
		snaps:         make([]map[int]hostSnap, len(hosts)),
		hostWall:      make([]time.Duration, len(hosts)),
	}
	f.cond = sync.NewCond(&f.mu)
	for i := range hosts {
		f.batches[i] = make([][]routedEvent, f.last)
		f.snaps[i] = map[int]hostSnap{}
		f.done[i] = start
	}
	for _, rb := range pre {
		for i := range hosts {
			f.snaps[i][rb.Boundary] = hostSnap{stats: rb.Stats[i], committed: rb.Committed[i]}
		}
	}
	if cfg.Telemetry != nil || rt.el != nil {
		// Every boundary is a barrier: run-ahead would only park.
		f.lead = 0
	}

	wall := time.Now()
	f.pool = runner.NewPool(cfg.Workers, len(hosts), f.advance)
	f.pool.WakeAll()
	err := f.route()
	f.pool.Close()

	if rep := cfg.Report; rep != nil {
		// One job per host: its wall clock sums the executor chunks that
		// advanced it.
		rep.Jobs += len(hosts)
		if w := f.pool.Workers(); w > rep.Workers {
			rep.Workers = w
		}
		rep.Wall += time.Since(wall)
		rep.JobWall = append(rep.JobWall, f.hostWall...)
	}
	if err != nil || stop == 0 {
		return nil, err
	}
	return f.capture(stop)
}

// gated reports whether boundary k has control-plane work — a
// collection epoch or an elasticity pass — and so a barrier.
func (f *asyncFleet) gated(k int) bool {
	return (f.cfg.Telemetry != nil && k >= f.telFrom) ||
		(f.rt.el != nil && k > f.cfg.WarmEpochs)
}

// route is the control-plane loop, run on the RunFleet goroutine: it
// runs each gated boundary's barrier, routes churn epochs in trace
// order (waiting on the slowest host only when an arrival epoch needs
// its base snapshot), and finally waits for every host to drain — or,
// with a stop boundary, to park there.
func (f *asyncFleet) route() error {
	for k := f.routed; k <= f.last; k++ {
		if f.stop > 0 && k == f.stop {
			return f.await(k)
		}
		if f.gated(k) {
			// Boundary k's control-plane work precedes epoch k's routing:
			// counters reflect epochs [0, k), and migrations commit and
			// replicas scale before the epoch's arrivals are placed.
			if err := f.barrier(k); err != nil {
				return err
			}
		}
		if k == f.last {
			break
		}
		var stats [][]core.VMStat
		var committed []int
		if f.plan.hasArrival[k] {
			b := baseFor(k)
			if err := f.await(b); err != nil {
				return err
			}
			f.mu.Lock()
			stats, committed = f.gatherLocked(b)
			f.mu.Unlock()
		}
		batches, err := f.rt.routeEpoch(k, stats, committed)
		if err != nil {
			f.fail(err, k, -1)
			return err
		}
		if batches != nil {
			for i := range f.hosts {
				f.batches[i][k] = batches[i]
			}
		}
		f.mu.Lock()
		f.routed = k + 1
		f.mu.Unlock()
		f.pool.WakeAll()
	}
	if err := f.await(f.last + 1); err != nil {
		return err
	}
	// Terminal collection epoch on the fully drained fleet.
	collectTelemetry(f.cfg.Telemetry, f.cfg.Horizon+f.cfg.Drain, f.hosts, f.res, f.cfg.SLO, f.rt)
	return nil
}

// barrier is boundary k's control-plane work. It waits until every host
// is parked at k (no host passes k before ctlDone >= k), then works
// over the frozen fleet in a fixed order — collection epoch, then
// elasticity pass — and opens the gate. The hosts' own policy passes
// follow the gate.
func (f *asyncFleet) barrier(k int) error {
	if err := f.await(k); err != nil {
		return err
	}
	now := f.plan.ends[k-1]
	if f.cfg.Telemetry != nil && k >= f.telFrom {
		collectTelemetry(f.cfg.Telemetry, now, f.hosts, f.res, f.cfg.SLO, f.rt)
	}
	if f.rt.el != nil && k > f.cfg.WarmEpochs {
		f.rt.el.pass(k, now)
	}
	f.mu.Lock()
	f.ctlDone = k
	f.mu.Unlock()
	f.pool.WakeAll()
	return nil
}

// await blocks until every host has completed epoch k-1 (is parked at
// boundary k or beyond), or the run has failed.
func (f *asyncFleet) await(k int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.minDone < k && f.failErr == nil {
		f.cond.Wait()
	}
	return f.failErr
}

// capture snapshots the fleet parked at boundary b, with the retained
// placement snapshots the router still owes there. The hosts' entries
// are copied, not consumed: an entry at x is consumed by arrival epoch
// x+lagEpochs >= b, which is not yet routed.
func (f *asyncFleet) capture(b int) (*FleetCheckpoint, error) {
	var ring []RingBoundary
	f.mu.Lock()
	for _, x := range f.plan.retained(b) {
		stats, committed := f.snapshotLocked(x)
		ring = append(ring, RingBoundary{Boundary: x, Stats: stats, Committed: committed})
	}
	f.mu.Unlock()
	return captureFleet(f.cfg, f.hosts, f.rt, f.res, ring, b, f.plan.ends[b-1])
}

// gatherLocked assembles the fleet snapshot at boundary b, consuming
// the hosts' published entries. Boundary 0 is the empty initial fleet.
func (f *asyncFleet) gatherLocked(b int) ([][]core.VMStat, []int) {
	if b == 0 {
		return make([][]core.VMStat, len(f.hosts)), make([]int, len(f.hosts))
	}
	stats, committed := f.snapshotLocked(b)
	for i := range f.snaps {
		delete(f.snaps[i], b)
	}
	return stats, committed
}

// snapshotLocked assembles the hosts' published entries at boundary b.
func (f *asyncFleet) snapshotLocked(b int) ([][]core.VMStat, []int) {
	stats := make([][]core.VMStat, len(f.hosts))
	committed := make([]int, len(f.hosts))
	for i := range f.hosts {
		s, ok := f.snaps[i][b]
		if !ok {
			panic(fmt.Sprintf("cluster: host %d never published boundary %d", i, b))
		}
		stats[i] = s.stats
		committed[i] = s.committed
	}
	return stats, committed
}

// advance is the pool's run function for one host queue: it advances
// the host through epochs until a gate blocks it, then parks. All work
// outside f.mu touches only host-local state.
func (f *asyncFleet) advance(i int) {
	h := f.hosts[i]
	for {
		f.mu.Lock()
		if f.failErr != nil || f.done[i] > f.last {
			f.mu.Unlock()
			return
		}
		k := f.done[i]
		if f.pendingPolicy[i] {
			if f.gated(k) && f.ctlDone < k {
				f.mu.Unlock()
				return // park until boundary k's barrier opens
			}
			f.mu.Unlock()
			t0 := time.Now()
			h.boundaryPolicy(f.pols[i], f.plan.ends[k-1]-f.plan.starts[k-1])
			f.mu.Lock()
			f.hostWall[i] += time.Since(t0)
			f.pendingPolicy[i] = false
			f.mu.Unlock()
			continue
		}
		if k < f.last && f.routed <= k {
			f.mu.Unlock()
			return // park until epoch k's batch is routed
		}
		if k > f.minDone+f.lead {
			f.mu.Unlock()
			return // park: lag bound reached, the slowest host gates us
		}
		f.mu.Unlock()

		if hook := testEpochHook; hook != nil {
			hook(i, k)
		}
		t0 := time.Now()
		var err error
		var snap []core.VMStat
		committed := 0
		if k < f.last {
			h.scheduleRouted(f.batches[i][k])
			if quiesceBefore(f.cfg, k) {
				h.ScheduleQuiesce(f.plan.starts[k])
			}
			if err = h.RunEpoch(f.plan.ends[k]); err == nil {
				snap = h.Snapshot(f.plan.ends[k] - f.plan.starts[k])
				committed = h.CommittedVCPUs()
				if k+1 == f.cfg.WarmEpochs && k+1 != f.stop {
					// The warm boundary: arm the mechanisms and resume the
					// load after the snapshot, before publishing done = k+1
					// (a warm-prefix capture stops here unarmed).
					h.Arm()
				}
			}
		} else {
			// The drain step: all churn epochs are behind us (the routing
			// gate saw to that), so retire every VM and run out the clock.
			h.StopAll()
			err = h.RunEpoch(f.cfg.Horizon + f.cfg.Drain)
		}
		wall := time.Since(t0)

		f.mu.Lock()
		f.hostWall[i] += wall
		if err != nil {
			f.failLocked(err, k, i)
			f.mu.Unlock()
			return
		}
		if k < f.last {
			if f.plan.needBoundary(k + 1) {
				f.snaps[i][k+1] = hostSnap{stats: snap, committed: committed}
			}
			f.pendingPolicy[i] = k+1 > f.cfg.WarmEpochs
		}
		f.done[i] = k + 1
		f.bumpMinLocked(k)
		f.mu.Unlock()
	}
}

// bumpMinLocked maintains minDone/minCount after a host advanced past
// `old`, and wakes the fleet when the global minimum moves: the router
// may be waiting on it, and parked hosts' lag bounds just loosened.
func (f *asyncFleet) bumpMinLocked(old int) {
	if old != f.minDone {
		return
	}
	if f.minCount--; f.minCount > 0 {
		return
	}
	min := f.done[0]
	for _, d := range f.done[1:] {
		if d < min {
			min = d
		}
	}
	count := 0
	for _, d := range f.done {
		if d == min {
			count++
		}
	}
	f.minDone, f.minCount = min, count
	f.cond.Broadcast()
	f.pool.WakeAll()
}

// fail records err (see failLocked) from the control plane and wakes
// every parked host so the run unwinds.
func (f *asyncFleet) fail(err error, epoch, host int) {
	f.mu.Lock()
	f.failLocked(err, epoch, host)
	f.mu.Unlock()
	f.pool.WakeAll()
}

// failLocked records the first failure by (epoch, host) order — a
// deterministic choice when a single fault is in play — and wakes
// everyone so the run unwinds.
func (f *asyncFleet) failLocked(err error, epoch, host int) {
	if f.failErr == nil || epoch < f.failEpoch || (epoch == f.failEpoch && host < f.failHost) {
		f.failErr, f.failEpoch, f.failHost = err, epoch, host
	}
	f.cond.Broadcast()
}
