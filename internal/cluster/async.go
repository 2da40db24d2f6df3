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
// Workers plain goroutines advance the hosts. Each worker claims a host
// no other worker holds and whose next step may run, runs that step
// outside the lock, publishes the host's done count and snapshot, and
// sleeps while no host may run. Virtual time is decoupled across hosts
// up to the lag bound; the only global synchronization points are the
// ones with genuine cross-host meaning:
//
//   - Routing: epoch k's churn batch must be delivered before a host
//     runs it, and an arrival epoch's placement needs the fleet
//     snapshot from boundary baseFor(k) — so the router waits for the
//     slowest host only up to that stale boundary, and hosts wait for
//     the routing frontier. A boundary with control-plane work (a
//     telemetry collection epoch, an elasticity pass) is a barrier: the
//     router waits for every host to reach it and does that work in one
//     fixed order before it routes the next epoch, so the routing
//     frontier is also the barrier's gate. A collector or the
//     elasticity layer makes every boundary a barrier, so the executor
//     paces epoch by epoch while either is on.
//   - The lag bound: no host runs more than lagEpochs epochs ahead of
//     the slowest, bounding snapshot memory and placement staleness.
//
// Everything a host does in a step — its boundary policy pass,
// scheduling its batch, running its engine, snapshotting — is host-
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
	// boundary the run ends at with every host parked. end is the done
	// count every host finishes at: stop, or last+1 (drained).
	telFrom int
	stop    int
	end     int

	mu   sync.Mutex
	cond *sync.Cond // broadcast whenever routed, a done count or failErr moves
	// routed is the routing frontier: epochs [0, routed) have their
	// batches delivered. The router runs boundary k's barrier before it
	// publishes routed = k+1 (last+1 after the drain boundary), so
	// routed > k also means boundary k's control-plane work is done.
	routed int
	// done[i] counts host i's completed steps (last+1 = drained);
	// minDone/minCount track the minimum incrementally.
	done     []int
	minDone  int
	minCount int
	// held[i] marks host i claimed by a worker; next is where the next
	// round-robin scan for a runnable host starts.
	held []bool
	next int
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
		cfg:      cfg,
		plan:     plan,
		hosts:    hosts,
		pols:     pols,
		rt:       rt,
		res:      res,
		lead:     lagEpochs,
		last:     plan.epochs(),
		telFrom:  telemetryFrom(cfg),
		stop:     stop,
		end:      plan.epochs() + 1,
		routed:   start,
		done:     make([]int, len(hosts)),
		minDone:  start,
		minCount: len(hosts),
		held:     make([]bool, len(hosts)),
		batches:  make([][][]routedEvent, len(hosts)),
		snaps:    make([]map[int]hostSnap, len(hosts)),
		hostWall: make([]time.Duration, len(hosts)),
	}
	if stop > 0 {
		f.end = stop
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
		// Every boundary is a barrier: run-ahead would only wait.
		f.lead = 0
	}

	wall := time.Now()
	workers := runner.Options{Workers: cfg.Workers}.Width(len(hosts))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			f.work()
		}()
	}
	// route returns once every host has reached f.end or the run has
	// failed, and in both cases the workers return too.
	err := f.route()
	wg.Wait()

	if rep := cfg.Report; rep != nil {
		// One job per host: its wall clock sums the executor steps that
		// advanced it.
		rep.Jobs += len(hosts)
		if workers > rep.Workers {
			rep.Workers = workers
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
	for k := f.routed; k < f.end; k++ {
		if f.gated(k) {
			// Boundary k's control-plane work precedes epoch k's routing:
			// counters reflect epochs [0, k), and migrations commit and
			// replicas scale before the epoch's arrivals are placed.
			if err := f.barrier(k); err != nil {
				return err
			}
		}
		if k < f.last {
			if err := f.routeEpoch(k); err != nil {
				return err
			}
		}
		f.mu.Lock()
		f.routed = k + 1
		f.cond.Broadcast()
		f.mu.Unlock()
	}
	if err := f.await(f.end); err != nil || f.stop > 0 {
		return err
	}
	// Terminal collection epoch on the fully drained fleet.
	collectTelemetry(f.cfg.Telemetry, f.cfg.Horizon+f.cfg.Drain, f.hosts, f.res, f.cfg.SLO, f.rt)
	return nil
}

// routeEpoch delivers epoch k's churn batches, placing its arrivals
// with the fleet snapshot from boundary baseFor(k).
func (f *asyncFleet) routeEpoch(k int) error {
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
		f.mu.Lock()
		f.failLocked(err, k, -1)
		f.mu.Unlock()
		return err
	}
	if batches != nil {
		for i := range f.hosts {
			f.batches[i][k] = batches[i]
		}
	}
	return nil
}

// barrier is boundary k's control-plane work. It waits until every host
// has reached k (none passes it: epoch k is not routed yet), then works
// over the frozen fleet in a fixed order — collection epoch, then
// elasticity pass. The hosts' own policy passes at k follow, once the
// router publishes routed = k+1.
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

// work is one executor worker. It claims a runnable host, runs the
// host's next step outside the lock, publishes the result and wakes the
// fleet; while no host is runnable it waits on f.cond. It returns once
// every host has reached f.end or the run has failed.
func (f *asyncFleet) work() {
	f.mu.Lock()
	for f.failErr == nil && f.minDone < f.end {
		i := f.claimLocked()
		if i < 0 {
			f.cond.Wait()
			continue
		}
		k := f.done[i]
		f.mu.Unlock()

		t0 := time.Now()
		snap, committed, err := f.step(i, k)
		wall := time.Since(t0)

		f.mu.Lock()
		f.held[i] = false
		f.hostWall[i] += wall
		if err != nil {
			f.failLocked(err, k, i)
			continue
		}
		if f.plan.needBoundary(k + 1) {
			f.snaps[i][k+1] = hostSnap{stats: snap, committed: committed}
		}
		f.done[i] = k + 1
		f.bumpMinLocked(k)
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// claimLocked scans round-robin for a host that no worker holds and
// whose next step k is routed (routed > k: batch delivered, boundary k's
// barrier done) and within the lag bound, marks it held and returns its
// index; -1 when no host is runnable.
func (f *asyncFleet) claimLocked() int {
	n := len(f.hosts)
	for j := 0; j < n; j++ {
		i := (f.next + j) % n
		if k := f.done[i]; !f.held[i] && k < f.routed && k <= f.minDone+f.lead {
			f.held[i] = true
			f.next = (i + 1) % n
			return i
		}
	}
	return -1
}

// step runs host i's step k, touching only host-local state: the
// policy pass owed at boundary k past the warm boundary, then churn
// epoch k — or, at k == last, the drain. It returns the host's snapshot
// at boundary k+1.
func (f *asyncFleet) step(i, k int) ([]core.VMStat, int, error) {
	h := f.hosts[i]
	if k > f.cfg.WarmEpochs {
		h.boundaryPolicy(f.pols[i], f.plan.ends[k-1]-f.plan.starts[k-1])
	}
	if hook := testEpochHook; hook != nil {
		hook(i, k)
	}
	if k == f.last {
		// The drain step: all churn epochs are behind us (the routing
		// gate saw to that), so retire every VM and run out the clock.
		h.StopAll()
		return nil, 0, h.RunEpoch(f.cfg.Horizon + f.cfg.Drain)
	}
	h.scheduleRouted(f.batches[i][k])
	if quiesceBefore(f.cfg, k) {
		h.ScheduleQuiesce(f.plan.starts[k])
	}
	if err := h.RunEpoch(f.plan.ends[k]); err != nil {
		return nil, 0, err
	}
	snap := h.Snapshot(f.plan.ends[k] - f.plan.starts[k])
	committed := h.CommittedVCPUs()
	if k+1 == f.cfg.WarmEpochs && k+1 != f.stop {
		// The warm boundary: arm the mechanisms and resume the load
		// after the snapshot, before publishing done = k+1 (a
		// warm-prefix capture stops here unarmed).
		h.Arm()
	}
	return snap, committed, nil
}

// bumpMinLocked maintains minDone/minCount after a host advanced past
// `old`.
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
