package cluster

import (
	"encoding/json"
	"fmt"

	"vscale/internal/cluster/migration"
	"vscale/internal/cluster/replicaset"
	"vscale/internal/core"
	"vscale/internal/loadgen"
	"vscale/internal/runner"
	"vscale/internal/sim"
)

// The elasticity layer: live migration (rebalancing VMs across hosts
// with a pre-copy model) and ReplicaSet-style horizontal autoscaling
// (scaling VM replicas per service against windowed SLO attainment).
// Both run as control-plane passes in the executor's boundary barrier,
// while every host engine is parked at the boundary, so their decisions
// — and the host mutations they commit — happen at identical points
// whatever the host pacing, and the results stay byte-identical across
// worker counts (docs/cluster.md).

// Migration and replica-admission constants.
const (
	// migMaxPerPass bounds migrations started per pass.
	migMaxPerPass = 1
	// dirtyBpsDefault is the memory dirtying rate (bytes/s at full CPU
	// utilisation) for VMs whose trace carries no dirty= hint.
	dirtyBpsDefault float64 = 200e6
	// guestLinkShare is the fraction of its I/O link a source host's
	// guests keep while an outbound migration occupies the rest.
	guestLinkShare float64 = 0.5
	// maxCommitFactor caps replica admission: a host may not exceed
	// maxCommitFactor * PCPUs committed vCPUs after placing a replica
	// (exceeding it raises a ReplicaFailure condition instead).
	maxCommitFactor float64 = 2
)

// MigrationConfig enables the rebalance/consolidate migration pass. The
// pre-copy model itself is fixed (package migration's constants).
type MigrationConfig struct {
	// Every runs the migration pass at every Every-th boundary (>= 1).
	Every int
	// TriggerVCPUs is the minimum committed-vCPU gap between the
	// hottest host and the chosen destination before a migration starts.
	TriggerVCPUs int
}

// DefaultMigrationConfig returns the documented defaults.
func DefaultMigrationConfig() MigrationConfig {
	return MigrationConfig{
		Every:        1,
		TriggerVCPUs: 2,
	}
}

// Validate rejects unusable migration parameters.
func (c *MigrationConfig) Validate() error {
	if c.Every < 1 {
		return fmt.Errorf("cluster: migration Every %d < 1", c.Every)
	}
	if c.TriggerVCPUs < 1 {
		return fmt.Errorf("cluster: migration TriggerVCPUs %d < 1", c.TriggerVCPUs)
	}
	return nil
}

// ReplicaSetConfig enables the horizontal autoscaling controller. Its
// scaling policy is fixed (package replicaset's constants).
type ReplicaSetConfig struct{}

// ElasticityFor maps a -elastic mode flag to the config pair.
func ElasticityFor(mode string) (*MigrationConfig, *ReplicaSetConfig, error) {
	switch mode {
	case "", "none", "vertical":
		return nil, nil, nil
	case "migrate":
		m := DefaultMigrationConfig()
		return &m, nil, nil
	case "replicas":
		return nil, &ReplicaSetConfig{}, nil
	case "hybrid":
		m := DefaultMigrationConfig()
		return &m, &ReplicaSetConfig{}, nil
	}
	return nil, nil, fmt.Errorf("cluster: unknown elasticity mode %q (want none, migrate, replicas or hybrid)", mode)
}

// replicaSeedSalt derives replica VM seeds from their creation index,
// on a stream disjoint from the trace-arrival seeds.
const replicaSeedSalt = 0x7f4a7c159e3779b9

// migrationOp is one in-flight pre-copy migration: started at a pass
// boundary, committed (stop-and-copy) at the first boundary past its
// modeled copy duration.
type migrationOp struct {
	vm       string
	src, dst int
	commitAt int // boundary index of the stop-and-copy cutover
	downtime sim.Time
	bytes    int64
}

// elasticity is the per-run control-plane state of the migration and
// replica-set passes. All methods run on the control-plane goroutine
// while every host engine is parked at an epoch boundary.
type elasticity struct {
	cfg  *FleetConfig
	plan *epochPlan
	rt   *fleetRouter
	res  *FleetResult

	mig   *MigrationConfig
	rsCfg *ReplicaSetConfig
	// rs is always built: trace VMs carrying service= register as
	// anchor members even in migration-only mode, so service identity
	// follows a VM across migrations.
	rs *replicaset.Controller

	hosts []*Host

	// rate is the latest trace-driven offered rate per live VM (the
	// service demand signal for fan-out); dirty holds trace dirty-rate
	// hints; vcpus the provisioned size per live VM; departAt each
	// trace VM's scheduled departure (static, from the plan).
	rate     map[string]float64
	dirty    map[string]float64
	vcpus    map[string]int
	departAt map[string]sim.Time

	migrating  map[string]bool
	inflight   []*migrationOp
	replicaSeq int
	// hostMigs counts committed out-migrations per source host
	// (vscale_host_migrations_total).
	hostMigs []int

	// Reusable pickHost inputs for boundary-time (probe-free) placement.
	noProbes  [][]core.VMStat
	zeroExtra []int
	scratch   pickScratch
	statsBuf  [][]core.VMStat
	commBuf   []int
}

// newElasticity builds the layer when either config is present; the
// migration config was validated by prepareFleet.
func newElasticity(cfg *FleetConfig, plan *epochPlan, rt *fleetRouter, res *FleetResult) *elasticity {
	if cfg.Migration == nil && cfg.ReplicaSet == nil {
		return nil
	}
	el := &elasticity{
		cfg:       cfg,
		plan:      plan,
		rt:        rt,
		res:       res,
		mig:       cfg.Migration,
		rsCfg:     cfg.ReplicaSet,
		rs:        replicaset.New(),
		rate:      map[string]float64{},
		dirty:     map[string]float64{},
		vcpus:     map[string]int{},
		departAt:  map[string]sim.Time{},
		migrating: map[string]bool{},
		noProbes:  make([][]core.VMStat, cfg.Hosts),
		zeroExtra: make([]int, cfg.Hosts),
		statsBuf:  make([][]core.VMStat, cfg.Hosts),
		commBuf:   make([]int, cfg.Hosts),
	}
	for _, evs := range plan.events {
		for _, ev := range evs {
			if ev.Kind == EventDepart {
				el.departAt[ev.VM] = ev.At
			}
		}
	}
	return el
}

// attachHosts binds the built (or restored) hosts.
func (el *elasticity) attachHosts(hosts []*Host) {
	el.hosts = hosts
	if el.hostMigs == nil {
		el.hostMigs = make([]int, len(hosts))
	}
}

// observeEvent is the router's bookkeeping hook, called as each churn
// event is routed (in trace order, whatever the host pacing): it keeps the
// rate/size maps current and registers service anchors.
func (el *elasticity) observeEvent(ev Event, host, k int) {
	switch ev.Kind {
	case EventArrive:
		el.rate[ev.VM] = ev.RateRPS
		el.vcpus[ev.VM] = ev.VCPUs
		if ev.DirtyBps > 0 {
			el.dirty[ev.VM] = ev.DirtyBps
		}
		if ev.Service != "" {
			el.rs.AddMember(ev.Service, ev.VM, host, k, true)
		}
	case EventPhase:
		el.rate[ev.VM] = ev.RateRPS
	case EventDepart:
		delete(el.rate, ev.VM)
		delete(el.vcpus, ev.VM)
		el.rs.RetireMember(ev.VM)
	}
}

// pass is one elasticity boundary pass at boundary b (time now =
// plan.ends[b-1]): commit due migrations, then — before the next epoch
// only — promote replica readiness, reconcile each service against its
// windowed attainment, start new migrations, and fan the service load
// out across ready replicas. The boundary observations are cached on
// each host so the policy pass that follows consumes the same window.
func (el *elasticity) pass(b int, now sim.Time) {
	epoch := now - el.plan.starts[b-1]
	obs := make([][]VMObservation, len(el.hosts))
	for i, h := range el.hosts {
		obs[i] = h.EpochObservations(epoch)
	}
	el.commit(b, now)
	if b < el.plan.epochs() {
		el.rs.Tick(b)
		if el.rsCfg != nil {
			el.reconcile(b, now, obs)
		}
		if el.mig != nil && b%el.mig.Every == 0 {
			el.start(b, now)
		}
		el.fanOut()
	}
}

// commit performs the stop-and-copy cutover of every migration due at
// boundary b: the VM retires on the source, an identical VM boots on
// the destination after the modeled downtime, ownership and the
// placement probe log move with it.
func (el *elasticity) commit(b int, now sim.Time) {
	if len(el.inflight) == 0 {
		return
	}
	keep := el.inflight[:0]
	for _, op := range el.inflight {
		if op.commitAt != b {
			keep = append(keep, op)
			continue
		}
		delete(el.migrating, op.vm)
		vcpus, active, seed, ok := el.hosts[op.src].MigrateOut(op.vm)
		if !ok {
			el.res.MigrationsAborted++
			continue
		}
		el.hosts[op.dst].ScheduleMigrateIn(op.vm, vcpus, active, el.desiredRate(op.vm), seed, now+op.downtime)
		el.rt.owner[op.vm] = op.dst
		el.rt.recordPlacement(op.dst, b, vcpus)
		el.rs.SetHost(op.vm, op.dst)
		el.hostMigs[op.src]++
		el.res.Migrations++
		el.res.MigrationDowntime += op.downtime
		el.res.MigrationBytes += op.bytes
	}
	el.inflight = keep
	el.applyThrottles()
}

// applyThrottles sets each host's guest-link scale from its current
// outbound-migration load.
func (el *elasticity) applyThrottles() {
	if el.mig == nil {
		return
	}
	for i, h := range el.hosts {
		scale := 1.0
		for _, op := range el.inflight {
			if op.src == i {
				scale = guestLinkShare
				break
			}
		}
		h.SetLinkScale(scale)
	}
}

// liveState assembles the boundary-exact fleet state pickHost needs:
// per-host VM stats (read-only, from the deltas the boundary Snapshot
// just computed) and committed vCPUs.
func (el *elasticity) liveState() ([][]core.VMStat, []int) {
	for i, h := range el.hosts {
		el.statsBuf[i] = h.statsAt()
		el.commBuf[i] = h.CommittedVCPUs()
	}
	return el.statsBuf, el.commBuf
}

// anchorRate sums the trace-driven offered rates of a service's live
// anchors — the service's demand, however many replicas carry it.
func (el *elasticity) anchorRate(s *replicaset.Service) float64 {
	total := 0.0
	for i := range s.Members {
		m := &s.Members[i]
		if m.Anchor && !m.Retired {
			total += el.rate[m.VM]
		}
	}
	return total
}

// desiredRate is the offered rate a VM should run at right now: its
// fan-out share when it belongs to a service, its trace rate otherwise.
func (el *elasticity) desiredRate(vm string) float64 {
	if svc := el.rs.ServiceOf(vm); svc != "" {
		s := el.rs.Lookup(svc)
		m := el.rs.Member(vm)
		if m != nil && !m.Ready {
			return 0
		}
		_, ready, _ := s.Live()
		return loadgen.Share(el.anchorRate(s), ready)
	}
	return el.rate[vm]
}

// reconcile runs one replica-set controller step per service, in
// registration order: score the boundary window's SLO attainment over
// the service's members, then scale out (placing a new replica with
// Algorithm 1 under the commit cap) or scale in (retiring the youngest
// non-anchor replica).
func (el *elasticity) reconcile(b int, now sim.Time, obs [][]VMObservation) {
	window := map[string]*VMObservation{}
	for i := range obs {
		for j := range obs[i] {
			o := &obs[i][j]
			window[o.VM] = o
		}
	}
	for _, s := range el.rs.Services() {
		var offered uint64
		var ok float64
		for i := range s.Members {
			m := &s.Members[i]
			if m.Retired {
				continue
			}
			if o := window[m.VM]; o != nil {
				offered += o.Offered
				// The window carries the per-VM attainment ratio; weight it
				// back by the VM's offered count to pool across members.
				ok += o.Attainment * float64(o.Offered)
			}
		}
		attainment := 1.0
		if offered > 0 {
			attainment = ok / float64(offered)
		}
		switch el.rs.Decide(s.Name, b, attainment, offered) {
		case +1:
			el.scaleUp(s, b)
		case -1:
			el.scaleDown(s, b)
		}
	}
}

// scaleUp places and boots one new replica for the service, or records
// a ReplicaFailure condition when no host can admit it under the
// commit cap.
func (el *elasticity) scaleUp(s *replicaset.Service, b int) {
	vcpus := 0
	for i := range s.Members {
		m := &s.Members[i]
		if m.Anchor && !m.Retired {
			vcpus = el.vcpus[m.VM]
			break
		}
	}
	if vcpus <= 0 {
		return
	}
	stats, committed := el.liveState()
	h := pickHost(el.cfg.PCPUsPerHost, el.cfg.Epoch, stats, el.noProbes, committed, el.zeroExtra, vcpus, &el.scratch)
	if float64(committed[h]+vcpus) > maxCommitFactor*float64(el.cfg.PCPUsPerHost) {
		el.rs.Fail(s.Name, b, replicaset.ReasonFailureCreate,
			fmt.Sprintf("no host admits %d vCPUs under the commit cap", vcpus))
		el.res.ReplicaFailures++
		return
	}
	name := fmt.Sprintf("%s.r%d", s.Name, el.replicaSeq)
	seed := runner.DeriveSeed(el.cfg.Seed^replicaSeedSalt, el.replicaSeq)
	el.replicaSeq++
	if err := el.hosts[h].addVM(name, vcpus, 0, seed); err != nil {
		el.hosts[h].fail(err)
		return
	}
	el.vcpus[name] = vcpus
	el.rt.owner[name] = h
	el.rt.recordPlacement(h, b, vcpus)
	el.rs.AddMember(s.Name, name, h, b, false)
	el.rs.RecordScale(s.Name, b)
	el.res.ReplicasCreated++
}

// scaleDown retires the youngest ready non-anchor replica that is not
// mid-migration.
func (el *elasticity) scaleDown(s *replicaset.Service, b int) {
	for i := len(s.Members) - 1; i >= 0; i-- {
		m := &s.Members[i]
		if m.Anchor || m.Retired || !m.Ready || el.migrating[m.VM] {
			continue
		}
		if !el.hosts[m.Host].HasLiveVM(m.VM) {
			continue // still landing from a migration cutover
		}
		el.hosts[m.Host].removeVM(m.VM)
		el.rs.RetireMember(m.VM)
		delete(el.rt.owner, m.VM)
		delete(el.vcpus, m.VM)
		el.rs.RecordScale(s.Name, b)
		el.res.ReplicasRetired++
		return
	}
}

// start begins up to migMaxPerPass pre-copy migrations: from the most
// committed host with no outbound migration, the first admission-order
// VM whose pre-copy plan converges on a commit boundary it will still
// be alive at, toward the host Algorithm 1 picks — provided the
// committed-vCPU gap clears the trigger and the destination never
// hosted a VM of that name.
func (el *elasticity) start(b int, now sim.Time) {
	for n := 0; n < migMaxPerPass; n++ {
		if !el.startOne(b, now) {
			return
		}
	}
}

func (el *elasticity) startOne(b int, now sim.Time) bool {
	stats, committed := el.liveState()
	src := -1
	for i := range el.hosts {
		busy := false
		for _, op := range el.inflight {
			if op.src == i {
				busy = true
				break
			}
		}
		if busy {
			continue
		}
		if src < 0 || committed[i] > committed[src] {
			src = i
		}
	}
	if src < 0 || committed[src] == 0 {
		return false
	}
	sh := el.hosts[src]
	for _, name := range sh.order {
		vm := sh.vms[name]
		if vm.retired || el.migrating[name] {
			continue
		}
		plan := migration.PreCopy(int64(vm.vcpus)*migration.MemBytesPerVCPU, el.dirtyRate(vm))
		cb, ok := el.commitBoundary(b, now+plan.Duration)
		if !ok {
			continue
		}
		if dep, hasDep := el.departAt[name]; hasDep && dep < el.plan.ends[cb-1] {
			continue // would depart from the source before the cutover
		}
		dst := pickHost(el.cfg.PCPUsPerHost, el.cfg.Epoch, stats, el.noProbes, committed, el.zeroExtra, vm.vcpus, &el.scratch)
		if dst == src || committed[src]-committed[dst] < el.mig.TriggerVCPUs {
			return false // fleet already balanced for this size
		}
		if _, hosted := el.hosts[dst].vms[name]; hosted {
			continue // destination once hosted this name; domains are immutable
		}
		downtime := plan.Downtime
		if max := el.cfg.Epoch / 2; downtime > max {
			downtime = max
		}
		el.migrating[name] = true
		el.inflight = append(el.inflight, &migrationOp{
			vm: name, src: src, dst: dst,
			commitAt: cb, downtime: downtime, bytes: plan.Bytes,
		})
		el.applyThrottles()
		return true
	}
	return false
}

// dirtyRate derives a VM's effective dirtying rate from its consumed
// vCPU time over the boundary epoch: an idle VM dirties almost
// nothing, a saturated one dirties at its full hinted rate.
func (el *elasticity) dirtyRate(vm *hostVM) float64 {
	base := dirtyBpsDefault
	if d, ok := el.dirty[vm.name]; ok {
		base = d
	}
	busy := float64(vm.epochConsumed) / (float64(el.cfg.Epoch) * float64(vm.vcpus))
	if busy > 1 {
		busy = 1
	}
	if busy < 0 {
		busy = 0
	}
	return base * busy
}

// commitBoundary returns the first boundary at or past readyAt that
// can host a cutover: strictly before the final boundary, so the
// destination VM boots inside the churn horizon.
func (el *elasticity) commitBoundary(b int, readyAt sim.Time) (int, bool) {
	for cb := b + 1; cb < el.plan.epochs(); cb++ {
		if el.plan.ends[cb-1] >= readyAt {
			return cb, true
		}
	}
	return 0, false
}

// fanOut drives each service's demand across its ready members: every
// ready replica (anchors included) runs at an equal share of the
// anchors' trace-driven rate. VMs still landing from a migration
// cutover are skipped and self-heal at the next boundary; VMs outside
// any service keep their trace rates untouched.
func (el *elasticity) fanOut() {
	for _, s := range el.rs.Services() {
		_, ready, _ := s.Live()
		share := loadgen.Share(el.anchorRate(s), ready)
		for i := range s.Members {
			m := &s.Members[i]
			if m.Retired || !m.Ready {
				continue
			}
			el.hosts[m.Host].SetVMRate(m.VM, share)
		}
	}
}

// ElasticityCheckpoint is the layer's control state in a warm-prefix
// snapshot: bookkeeping maps, counters, and the replica-set controller
// state. No elasticity pass runs before the warm boundary, so nothing
// is in flight there and the counters are zero; they stay in the
// format for the byte-identity of existing files.
type ElasticityCheckpoint struct {
	ReplicaSeq        int                `json:"replica_seq"`
	Rate              map[string]float64 `json:"rate,omitempty"`
	Dirty             map[string]float64 `json:"dirty,omitempty"`
	VCPUs             map[string]int     `json:"vcpus,omitempty"`
	HostMigrations    []int              `json:"host_migrations"`
	Migrations        int                `json:"migrations"`
	MigrationsAborted int                `json:"migrations_aborted"`
	MigrationDowntime sim.Time           `json:"migration_downtime"`
	MigrationBytes    int64              `json:"migration_bytes"`
	ReplicasCreated   int                `json:"replicas_created"`
	ReplicasRetired   int                `json:"replicas_retired"`
	ReplicaFailures   int                `json:"replica_failures"`
	ReplicaSet        json.RawMessage    `json:"replicaset"`
}

// capture exports the layer's state.
func (el *elasticity) capture() (json.RawMessage, error) {
	rsRaw, err := el.rs.CheckpointState()
	if err != nil {
		return nil, err
	}
	return json.Marshal(ElasticityCheckpoint{
		ReplicaSeq:        el.replicaSeq,
		Rate:              el.rate,
		Dirty:             el.dirty,
		VCPUs:             el.vcpus,
		HostMigrations:    el.hostMigs,
		Migrations:        el.res.Migrations,
		MigrationsAborted: el.res.MigrationsAborted,
		MigrationDowntime: el.res.MigrationDowntime,
		MigrationBytes:    el.res.MigrationBytes,
		ReplicasCreated:   el.res.ReplicasCreated,
		ReplicasRetired:   el.res.ReplicasRetired,
		ReplicaFailures:   el.res.ReplicaFailures,
		ReplicaSet:        rsRaw,
	})
}

// restore overwrites the layer's state from a capture (hosts must be
// attached first).
func (el *elasticity) restore(raw json.RawMessage) error {
	var cp ElasticityCheckpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		return fmt.Errorf("cluster: parsing elasticity state: %w", err)
	}
	if len(cp.HostMigrations) != len(el.hosts) {
		return fmt.Errorf("cluster: elasticity state covers %d hosts, fleet has %d", len(cp.HostMigrations), len(el.hosts))
	}
	if err := el.rs.RestoreState(cp.ReplicaSet); err != nil {
		return err
	}
	el.replicaSeq = cp.ReplicaSeq
	el.rate = map[string]float64{}
	for k, v := range cp.Rate {
		el.rate[k] = v
	}
	el.dirty = map[string]float64{}
	for k, v := range cp.Dirty {
		el.dirty[k] = v
	}
	el.vcpus = map[string]int{}
	for k, v := range cp.VCPUs {
		el.vcpus[k] = v
	}
	copy(el.hostMigs, cp.HostMigrations)
	el.res.Migrations = cp.Migrations
	el.res.MigrationsAborted = cp.MigrationsAborted
	el.res.MigrationDowntime = cp.MigrationDowntime
	el.res.MigrationBytes = cp.MigrationBytes
	el.res.ReplicasCreated = cp.ReplicasCreated
	el.res.ReplicasRetired = cp.ReplicasRetired
	el.res.ReplicaFailures = cp.ReplicaFailures
	return nil
}
