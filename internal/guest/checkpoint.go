package guest

import (
	"fmt"

	"vscale/internal/sim"
)

// Checkpoint support for the guest kernel (docs/checkpoint.md). Like the
// hypervisor layer, a kernel can only be captured when quiesced: every
// vCPU idle and blocked, every thread sleeping on a wait queue (or
// exited), no kernel locks held, no in-flight continuations, and no
// vScale daemon (the warm prefix runs disarmed). In that shape all
// remaining guest state is plain data — counters, integrals and PRNG
// state — and the thread graph of a freshly rebuilt kernel is
// structurally identical, so restore is field overwrite plus wait-queue
// reordering.

// GuestCPUCheckpoint is the semantic state of one (idle) guest CPU.
type GuestCPUCheckpoint struct {
	TickCount     int      `json:"tick_count"`
	TimesliceLeft sim.Time `json:"timeslice_left"`
	PickedAt      sim.Time `json:"picked_at"`
	KspinSpun     sim.Time `json:"kspin_spun"`
	Stats         CPUStats `json:"stats"`
}

// ThreadCheckpoint is the semantic state of one thread. The scheduler
// linkage (which queue, which phase) is structural: a quiesced worker is
// always sleeping in a Dequeue action's phase 1, so only the identity-invariant
// counters and the CPU affinity are recorded. Mailbox is deliberately
// not captured: a sleeping consumer's mailbox holds a stale item that is
// always overwritten before the next read.
type ThreadCheckpoint struct {
	State    int      `json:"state"` // ThreadSleeping or ThreadExited
	CPU      int      `json:"cpu"`
	CPUTime  sim.Time `json:"cpu_time"`
	StartAt  sim.Time `json:"start_at"`
	ExitAt   sim.Time `json:"exit_at"`
	Sleeps   uint64   `json:"sleeps"`
	WakeUps  uint64   `json:"wake_ups"`
	Migrated uint64   `json:"migrated"`
}

// LockCheckpoint is the counter state of one kernel bucket lock.
type LockCheckpoint struct {
	Acquisitions uint64 `json:"acquisitions"`
	Contended    uint64 `json:"contended"`
	PVParks      uint64 `json:"pv_parks"`
}

// TWCheckpoint is the state of the active-vCPU time-weighted integral
// (the provisioned-cost accumulator behind ActiveVCPUSeconds).
type TWCheckpoint struct {
	Last    sim.Time `json:"last"`
	Value   float64  `json:"value"`
	Weight  float64  `json:"weight"`
	Started bool     `json:"started"`
	Start   sim.Time `json:"start"`
}

// KernelCheckpoint is the semantic state of a quiesced kernel.
type KernelCheckpoint struct {
	Rand        sim.RandState        `json:"rand"`
	FreezeMask  uint64               `json:"freeze_mask"`
	ActiveTW    TWCheckpoint         `json:"active_tw"`
	FreezeOps   uint64               `json:"freeze_ops"`
	UnfreezeOps uint64               `json:"unfreeze_ops"`
	FutexWaits  uint64               `json:"futex_waits"`
	FutexWakes  uint64               `json:"futex_wakes"`
	CPUs        []GuestCPUCheckpoint `json:"cpus"`
	Threads     []ThreadCheckpoint   `json:"threads"`
	Buckets     []LockCheckpoint     `json:"buckets"`
}

// QuiesceCheck verifies the kernel is in the only shape this layer can
// checkpoint. It returns an error naming the first violation.
func (k *Kernel) QuiesceCheck() error {
	if !k.booted {
		return fmt.Errorf("guest %s: not booted", k.dom.Name)
	}
	if k.traceEV != nil {
		return fmt.Errorf("guest %s: active-vCPU trace ticker is incompatible with checkpointing", k.dom.Name)
	}
	if k.daemon != nil {
		return fmt.Errorf("guest %s: a running vScale daemon is not checkpointable", k.dom.Name)
	}
	for _, c := range k.cpus {
		switch {
		case c.current != nil:
			return fmt.Errorf("guest %s: cpu %d is running thread %q", k.dom.Name, c.id, c.current.Name)
		case len(c.rq) != 0:
			return fmt.Errorf("guest %s: cpu %d has %d runnable threads", k.dom.Name, c.id, len(c.rq))
		case c.running:
			return fmt.Errorf("guest %s: cpu %d still holds a pCPU", k.dom.Name, c.id)
		case c.seg.Armed():
			return fmt.Errorf("guest %s: cpu %d has a segment in flight", k.dom.Name, c.id)
		case c.idle.Armed():
			return fmt.Errorf("guest %s: cpu %d has a pending idle block", k.dom.Name, c.id)
		case c.tick.Armed():
			return fmt.Errorf("guest %s: cpu %d tick timer still armed", k.dom.Name, c.id)
		case c.kspin != nil:
			return fmt.Errorf("guest %s: cpu %d is spinning on %s", k.dom.Name, c.id, c.kspin.Name)
		case c.pvParked:
			return fmt.Errorf("guest %s: cpu %d is pv-parked", k.dom.Name, c.id)
		case c.locksHeld != 0:
			return fmt.Errorf("guest %s: cpu %d holds %d kernel locks", k.dom.Name, c.id, c.locksHeld)
		case c.resched.Armed():
			return fmt.Errorf("guest %s: cpu %d has a deferred resched pending", k.dom.Name, c.id)
		case len(c.timers) != 0:
			return fmt.Errorf("guest %s: cpu %d has %d software timers pending", k.dom.Name, c.id, len(c.timers))
		case len(c.softirqs) != 0:
			return fmt.Errorf("guest %s: cpu %d has %d softirqs in flight", k.dom.Name, c.id, len(c.softirqs))
		}
	}
	for _, t := range k.threads {
		if t.state != ThreadSleeping && t.state != ThreadExited {
			return fmt.Errorf("guest %s: thread %q is %v", k.dom.Name, t.Name, t.state)
		}
		if t.kcont.op != opNone || t.kspinGranted {
			return fmt.Errorf("guest %s: thread %q is inside a kernel critical section", k.dom.Name, t.Name)
		}
		if t.spin.active {
			return fmt.Errorf("guest %s: thread %q has an in-progress spin wait", k.dom.Name, t.Name)
		}
		if kind := t.pending.kind; kind != actNone && kind != actDequeue {
			return fmt.Errorf("guest %s: thread %q blocked in %v (only dequeue is checkpointable)",
				k.dom.Name, t.Name, kind)
		}
	}
	for i := range k.buckets {
		if l := &k.buckets[i]; l.holder != nil || len(l.waiters) > 0 {
			return fmt.Errorf("guest %s: kernel lock %s busy", k.dom.Name, l.Name)
		}
	}
	for key, q := range k.futexes {
		if len(q.waiters) != 0 {
			return fmt.Errorf("guest %s: futex %#x has %d waiters", k.dom.Name, key, len(q.waiters))
		}
	}
	for _, d := range k.devices {
		if len(d.completions) != 0 {
			return fmt.Errorf("guest %s: device %s has %d undelivered completions", k.dom.Name, d.Name, len(d.completions))
		}
	}
	return nil
}

// CaptureState exports the kernel's semantic state. The caller must have
// verified QuiesceCheck first.
func (k *Kernel) CaptureState() KernelCheckpoint {
	cp := KernelCheckpoint{
		Rand:       k.rand.State(),
		FreezeMask: k.freezeMask,
		ActiveTW: TWCheckpoint{
			Last:    k.activeTW.last,
			Value:   k.activeTW.value,
			Weight:  k.activeTW.weight,
			Started: k.activeTW.started,
			Start:   k.activeTW.start,
		},
		FreezeOps:   k.FreezeOps,
		UnfreezeOps: k.UnfreezeOps,
		FutexWaits:  k.FutexWaits,
		FutexWakes:  k.FutexWakes,
	}
	for _, c := range k.cpus {
		cp.CPUs = append(cp.CPUs, GuestCPUCheckpoint{
			TickCount:     c.tickCount,
			TimesliceLeft: c.timesliceLeft,
			PickedAt:      c.pickedAt,
			KspinSpun:     c.kspinSpun,
			Stats:         c.stats,
		})
	}
	for _, t := range k.threads {
		cp.Threads = append(cp.Threads, ThreadCheckpoint{
			State:    int(t.state),
			CPU:      t.cpu,
			CPUTime:  t.CPUTime,
			StartAt:  t.StartAt,
			ExitAt:   t.ExitAt,
			Sleeps:   t.Sleeps,
			WakeUps:  t.WakeUps,
			Migrated: t.Migrated,
		})
	}
	for i := range k.buckets {
		l := &k.buckets[i]
		cp.Buckets = append(cp.Buckets, LockCheckpoint{
			Acquisitions: l.Acquisitions,
			Contended:    l.Contended,
			PVParks:      l.PVParks,
		})
	}
	return cp
}

// RestoreState overwrites the kernel's semantic state from a capture.
// The kernel must have been rebuilt with the same thread population (same
// spawn order) and be quiesced. A freeze mask may name only vCPUs 1 up
// to the VM's size: vCPU 0 is the master and never freezes.
func (k *Kernel) RestoreState(cp KernelCheckpoint) error {
	if err := k.QuiesceCheck(); err != nil {
		return fmt.Errorf("guest: restore target not quiesced: %w", err)
	}
	if len(cp.CPUs) != len(k.cpus) {
		return fmt.Errorf("guest %s: restoring %d CPUs into %d", k.dom.Name, len(cp.CPUs), len(k.cpus))
	}
	if len(cp.Threads) != len(k.threads) {
		return fmt.Errorf("guest %s: restoring %d threads into %d", k.dom.Name, len(cp.Threads), len(k.threads))
	}
	if len(cp.Buckets) != len(k.buckets) {
		return fmt.Errorf("guest %s: restoring %d lock buckets into %d", k.dom.Name, len(cp.Buckets), len(k.buckets))
	}
	for i, t := range k.threads {
		tc := cp.Threads[i]
		if st := ThreadState(tc.State); st != t.state {
			// Both sides must agree sleeping-vs-exited; a mismatch means the
			// rebuild replayed a different history.
			return fmt.Errorf("guest %s: thread %q is %v, checkpoint has %v", k.dom.Name, t.Name, t.state, st)
		}
		if tc.CPU < 0 || tc.CPU >= len(k.cpus) {
			return fmt.Errorf("guest %s: thread %q on invalid CPU %d", k.dom.Name, t.Name, tc.CPU)
		}
	}
	if valid := uint64(1)<<uint(len(k.cpus)) - 2; cp.FreezeMask&^valid != 0 {
		return fmt.Errorf("guest %s: freeze mask %#x names vCPUs outside 1..%d", k.dom.Name, cp.FreezeMask, len(k.cpus)-1)
	}
	if err := k.rand.SetState(cp.Rand); err != nil {
		return fmt.Errorf("guest %s: %w", k.dom.Name, err)
	}
	k.freezeMask = cp.FreezeMask
	k.activeTW = metricTW{
		last:    cp.ActiveTW.Last,
		value:   cp.ActiveTW.Value,
		weight:  cp.ActiveTW.Weight,
		started: cp.ActiveTW.Started,
		start:   cp.ActiveTW.Start,
	}
	k.FreezeOps = cp.FreezeOps
	k.UnfreezeOps = cp.UnfreezeOps
	k.FutexWaits = cp.FutexWaits
	k.FutexWakes = cp.FutexWakes
	for i, c := range k.cpus {
		cc := cp.CPUs[i]
		c.tickCount = cc.TickCount
		c.timesliceLeft = cc.TimesliceLeft
		c.pickedAt = cc.PickedAt
		c.kspinSpun = cc.KspinSpun
		c.stats = cc.Stats
	}
	for i, t := range k.threads {
		tc := cp.Threads[i]
		t.cpu = tc.CPU
		t.CPUTime = tc.CPUTime
		t.StartAt = tc.StartAt
		t.ExitAt = tc.ExitAt
		t.Sleeps = tc.Sleeps
		t.WakeUps = tc.WakeUps
		t.Migrated = tc.Migrated
	}
	for i := range k.buckets {
		l, lc := &k.buckets[i], cp.Buckets[i]
		l.Acquisitions = lc.Acquisitions
		l.Contended = lc.Contended
		l.PVParks = lc.PVParks
	}
	return nil
}

// WaitQueueCheckpoint is the state of one wait queue at quiesce: its
// counters and the FIFO order of its sleeping consumers (as thread ids).
// Items and blocked producers must be empty — a queue with either is not
// quiesced.
type WaitQueueCheckpoint struct {
	Posts      uint64 `json:"posts"`
	Drops      uint64 `json:"drops"`
	WaiterTIDs []int  `json:"waiter_tids"`
}

// CheckpointState exports the wait queue's state.
func (q *WaitQueue) CheckpointState() (WaitQueueCheckpoint, error) {
	if q.Len() != 0 {
		return WaitQueueCheckpoint{}, fmt.Errorf("guest: wait queue has %d undequeued items", q.Len())
	}
	if len(q.producers) != 0 {
		return WaitQueueCheckpoint{}, fmt.Errorf("guest: wait queue has %d blocked producers", len(q.producers))
	}
	cp := WaitQueueCheckpoint{Posts: q.Posts, Drops: q.Drops}
	for _, w := range q.waiters {
		cp.WaiterTIDs = append(cp.WaiterTIDs, w.id)
	}
	return cp, nil
}

// RestoreState overwrites the queue's counters and reorders its waiters
// to the captured FIFO order. The rebuilt queue must hold exactly the
// same set of sleeping threads (in any order — a fresh boot blocks them
// in spawn order, the captured run in completion order).
func (q *WaitQueue) RestoreState(cp WaitQueueCheckpoint) error {
	if len(q.waiters) != len(cp.WaiterTIDs) {
		return fmt.Errorf("guest: wait queue has %d waiters, checkpoint has %d", len(q.waiters), len(cp.WaiterTIDs))
	}
	byTID := make(map[int]*Thread, len(q.waiters))
	for _, w := range q.waiters {
		byTID[w.id] = w
	}
	reordered := make([]*Thread, 0, len(cp.WaiterTIDs))
	for _, tid := range cp.WaiterTIDs {
		w, ok := byTID[tid]
		if !ok {
			return fmt.Errorf("guest: checkpoint waiter tid %d is not blocked on this queue", tid)
		}
		delete(byTID, tid)
		reordered = append(reordered, w)
	}
	q.waiters = reordered
	q.Posts = cp.Posts
	q.Drops = cp.Drops
	return nil
}

// MutexCheckpoint is the counter state of a (quiesced, unlocked) mutex.
type MutexCheckpoint struct {
	Acquisitions uint64 `json:"acquisitions"`
	Contended    uint64 `json:"contended"`
}

// CheckpointState exports the mutex counters; a held mutex is an error.
func (m *Mutex) CheckpointState() (MutexCheckpoint, error) {
	if m.owner != nil {
		return MutexCheckpoint{}, fmt.Errorf("guest: mutex held by %q at checkpoint", m.owner.Name)
	}
	return MutexCheckpoint{Acquisitions: m.Acquisitions, Contended: m.Contended}, nil
}

// RestoreState overwrites the mutex counters.
func (m *Mutex) RestoreState(cp MutexCheckpoint) {
	m.Acquisitions = cp.Acquisitions
	m.Contended = cp.Contended
}
