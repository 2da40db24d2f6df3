package guest

import (
	"fmt"
	"slices"

	"vscale/internal/core"
	"vscale/internal/costmodel"
	"vscale/internal/sim"
)

// FreezeVCPU executes Algorithm 2 on the master vCPU (vCPU0): set the
// freeze-mask bit, update scheduling-group power, notify the hypervisor,
// and tickle the target with a reschedule IPI so it migrates its own
// work. The master-side cost (Table 3: 2.10 µs) is charged to vCPU0;
// the target-side migration cost is charged on the target when it
// drains. Freezing vCPU0 or an already frozen vCPU is an error.
func (k *Kernel) FreezeVCPU(target int) error {
	if target <= 0 || target >= len(k.cpus) {
		return fmt.Errorf("guest: cannot freeze vCPU %d", target)
	}
	if k.Frozen(target) {
		return fmt.Errorf("guest: vCPU %d already frozen", target)
	}
	k.FreezeOps++
	k.tracer().FreezeOp(k.eng.Now(), k.dom.ID(), target, true)
	master := k.cpus[0]

	// Steps (1)-(4): serialised master-side bookkeeping. The individual
	// step costs are charged as one interrupt-context stretch on vCPU0.
	k.chargeInterrupt(master, core.MasterCost()-costmodel.RescheduleIPISend)
	k.freezeMask |= 1 << uint(target)
	k.activeTW.set(k.eng.Now(), float64(k.ActiveVCPUs()))

	// Step (3): hypervisor stops crediting the target.
	k.dom.HypercallCPUFreeze(target, true)

	// Step (4): reschedule IPI; the send cost lands on the master, the
	// delivery triggers the target's drain via resume().
	k.chargeInterrupt(master, costmodel.RescheduleIPISend)
	k.softirq("guest/freeze-ipi", k.cpus[target], softirqIPI, 0)
	return nil
}

// UnfreezeVCPU reverses FreezeVCPU: clear the mask bit, re-activate the
// vCPU at the hypervisor and wake it so it pulls work (wake_up_idle_cpu).
func (k *Kernel) UnfreezeVCPU(target int) error {
	if target <= 0 || target >= len(k.cpus) {
		return fmt.Errorf("guest: cannot unfreeze vCPU %d", target)
	}
	if !k.Frozen(target) {
		return fmt.Errorf("guest: vCPU %d not frozen", target)
	}
	k.UnfreezeOps++
	k.tracer().FreezeOp(k.eng.Now(), k.dom.ID(), target, false)
	master := k.cpus[0]
	k.chargeInterrupt(master, core.MasterCost()-costmodel.RescheduleIPISend)
	k.freezeMask &^= 1 << uint(target)
	k.activeTW.set(k.eng.Now(), float64(k.ActiveVCPUs()))
	k.dom.HypercallCPUFreeze(target, false)
	k.chargeInterrupt(master, costmodel.RescheduleIPISend)
	k.softirq("guest/unfreeze-ipi", k.cpus[target], softirqIPI, 0)
	return nil
}

// ResizeActive freezes the highest-numbered active vCPUs or unfreezes
// the lowest-numbered frozen ones until target are active, and returns
// how many it froze or unfroze. It stops early when no vCPU is left to
// move or the balancer refuses one.
func (k *Kernel) ResizeActive(target int) int {
	ops := 0
	for k.ActiveVCPUs() > target {
		victim := -1
		for i := len(k.cpus) - 1; i >= 1; i-- {
			if !k.Frozen(i) {
				victim = i
				break
			}
		}
		if victim < 0 || k.FreezeVCPU(victim) != nil {
			return ops
		}
		ops++
	}
	for k.ActiveVCPUs() < target {
		cand := -1
		for i := 1; i < len(k.cpus); i++ {
			if k.Frozen(i) {
				cand = i
				break
			}
		}
		if cand < 0 || k.UnfreezeVCPU(cand) != nil {
			return ops
		}
		ops++
	}
	return ops
}

// drainFrozen runs on a frozen CPU (typically right after the freeze
// IPI): migrate every migratable thread to active CPUs, move pending
// software timers to the master, and rebind device IRQs. The per-item
// costs (Table 3: 0.9–1.1 µs per thread, 0.8–1.2 µs per IRQ) keep the
// vCPU busy briefly before it goes idle and blocks.
//
// It returns false when the drain must be postponed (the CPU is inside a
// kernel-lock critical section or spin); resume() retries.
func (k *Kernel) drainFrozen(c *cpu) bool {
	if c.kspin != nil || c.pvParked {
		return false
	}
	// Kernel critical sections pin their thread to this CPU; postpone
	// the drain until they complete (retried at the next tick or
	// dispatch).
	if c.current != nil && c.current.inKernelCritical() {
		return false
	}
	for _, t := range c.rq {
		if t.inKernelCritical() {
			return false
		}
	}
	var cost sim.Time
	moved := 0

	migrate := func(t *Thread) {
		dst := k.selectCPU(t, -1)
		t.cpu = dst
		t.Migrated++
		c.stats.ThreadMigrates++
		k.enqueue(k.cpus[dst], t, true)
		cost += costmodel.ThreadMigrate.Draw(k.rand)
		moved++
	}

	if t := c.current; t != nil {
		k.pauseSegment(c)
		c.current = nil
		if t.Kind.Migratable() {
			t.state = ThreadRunnable
			migrate(t)
		} else {
			// A per-CPU kthread stays parked on its CPU.
			t.state = ThreadSleeping
		}
	}
	for len(c.rq) > 0 {
		t := c.rq[0]
		c.rq = slices.Delete(c.rq, 0, 1)
		if t.Kind.Migratable() {
			migrate(t)
		} else {
			t.state = ThreadSleeping
		}
	}

	// Move software timers to the master vCPU so the frozen vCPU stays
	// quiescent (the paper suspends VIRQ_TIMER on frozen vCPUs).
	if len(c.timers) > 0 {
		master := k.cpus[0]
		for _, e := range c.timers {
			k.addTimer(master, e.at, e.fn)
		}
		c.timers = nil
		c.vcpu.StopTimer()
	}

	// Rebind device interrupts away (event-channel rebinding hypercall).
	for _, d := range k.devices {
		if d.port.Target() == c.id {
			dst := k.selectCPU(&Thread{Kind: Uthread, cpu: 0}, 0)
			k.dom.RebindIRQ(d.port, dst)
			cost += costmodel.IRQMigrate.Draw(k.rand)
		}
	}

	// The drain work occupies the target vCPU for its total cost, then
	// the CPU idles out (and the hypervisor blocks it).
	if cost > 0 {
		k.eng.After(cost, "guest/drain-done", func() {
			if k.Frozen(c.id) && c.running {
				k.goIdle(c)
			}
		})
		return true
	}
	k.goIdle(c)
	return true
}
