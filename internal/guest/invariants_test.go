package guest

import (
	"fmt"
	"testing"

	"vscale/internal/sim"
	"vscale/internal/xen"
)

// checkInvariants verifies the structural invariants of a kernel:
// every live thread is in exactly one place (one runqueue, or current on
// one CPU, or sleeping/exited off-queue), frozen CPUs drain completely,
// and per-CPU bookkeeping is self-consistent.
func checkInvariants(t *testing.T, k *Kernel) {
	t.Helper()
	seen := make(map[*Thread]string)
	place := func(th *Thread, where string) {
		if prev, dup := seen[th]; dup {
			t.Fatalf("thread %s in two places: %s and %s", th.Name, prev, where)
		}
		seen[th] = where
	}
	for _, c := range k.cpus {
		if c.current != nil {
			place(c.current, fmt.Sprintf("current@%d", c.id))
			if c.current.State() != ThreadRunning {
				t.Fatalf("current thread %s has state %v", c.current.Name, c.current.State())
			}
		}
		for _, th := range c.rq {
			place(th, fmt.Sprintf("rq@%d", c.id))
			if th.State() != ThreadRunnable {
				t.Fatalf("queued thread %s has state %v", th.Name, th.State())
			}
		}
	}
	for _, th := range k.Threads() {
		where, queued := seen[th]
		switch th.State() {
		case ThreadRunning, ThreadRunnable:
			if !queued {
				t.Fatalf("live thread %s (%v) is on no CPU", th.Name, th.State())
			}
			_ = where
		case ThreadSleeping, ThreadExited:
			if queued {
				t.Fatalf("%v thread %s still placed at %s", th.State(), th.Name, where)
			}
		}
	}
}

// TestInvariantsUnderRandomScaling drives random freeze/unfreeze
// sequences against a mixed workload and checks structural invariants
// at every step.
func TestInvariantsUnderRandomScaling(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			eng := sim.NewEngine(seed)
			pool := xen.NewPool(eng, xen.DefaultConfig(4))
			dom := pool.AddDomain("vm", 256, 4, nil)
			cfg := DefaultConfig()
			cfg.Seed = seed
			k := NewKernel(dom, cfg)
			k.SpawnPerCPUKthreads()
			r := sim.NewRand(seed * 31)

			// A mixed forever-workload: compute, mutex, barrier, sleep.
			m := k.NewMutex()
			b := k.NewBarrier(3, 50*sim.Microsecond)
			for i := 0; i < 3; i++ {
				k.Spawn("barrier", Uthread, &loop{n: 1 << 30, body: func(int) []Action {
					return []Action{Compute(800 * sim.Microsecond), BarrierWait(b)}
				}}, nil)
			}
			for i := 0; i < 3; i++ {
				k.Spawn("locker", Uthread, &loop{n: 1 << 30, body: func(int) []Action {
					return []Action{
						Lock(m), Compute(100 * sim.Microsecond), Unlock(m),
						Sleep(500 * sim.Microsecond),
					}
				}}, nil)
			}
			pool.Start()
			k.Boot()

			for step := 0; step < 60; step++ {
				if err := eng.RunUntil(eng.Now() + sim.Time(1+r.Intn(40))*sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				// Random scaling action.
				cpu := 1 + r.Intn(3)
				if k.Frozen(cpu) {
					if err := k.UnfreezeVCPU(cpu); err != nil {
						t.Fatal(err)
					}
				} else if k.ActiveVCPUs() > 1 {
					if err := k.FreezeVCPU(cpu); err != nil {
						t.Fatal(err)
					}
				}
				// Let the reconfiguration settle, then check.
				if err := eng.RunUntil(eng.Now() + 50*sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				checkInvariants(t, k)
				// Frozen CPUs must be fully drained of migratable work.
				for id := 0; id < k.NCPUs(); id++ {
					if !k.Frozen(id) {
						continue
					}
					c := k.cpus[id]
					if c.current != nil && c.current.Kind.Migratable() {
						t.Fatalf("frozen CPU %d still runs %s", id, c.current.Name)
					}
					for _, th := range c.rq {
						if th.Kind.Migratable() {
							t.Fatalf("frozen CPU %d still queues %s", id, th.Name)
						}
					}
				}
			}
			// The workload must still be making progress: unfreeze all and
			// verify barrier episodes keep accumulating.
			for id := 1; id < k.NCPUs(); id++ {
				if k.Frozen(id) {
					if err := k.UnfreezeVCPU(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := b.Waits
			if err := eng.RunUntil(eng.Now() + 500*sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			if b.Waits <= before {
				t.Fatal("workload stopped making progress after scaling churn")
			}
		})
	}
}

// TestInvariantsUnderPVLockScaling repeats the churn with paravirtual
// spinlocks enabled (the pv-park/kick path interacts with freezing).
func TestInvariantsUnderPVLockScaling(t *testing.T) {
	eng := sim.NewEngine(77)
	pool := xen.NewPool(eng, xen.DefaultConfig(2)) // oversubscribed on purpose
	domBG := pool.AddDomain("bg", 256, 2, nil)
	kbg := NewKernel(domBG, DefaultConfig())
	for i := 0; i < 2; i++ {
		kbg.Spawn("hog", Uthread, &loop{n: 1 << 30, body: func(int) []Action {
			return []Action{Compute(sim.Millisecond)}
		}}, nil)
	}
	dom := pool.AddDomain("vm", 256, 4, nil)
	cfg := DefaultConfig()
	cfg.PVSpinlock = true
	cfg.PVSpinThreshold = 5 * sim.Microsecond
	k := NewKernel(dom, cfg)
	m := k.NewMutex()
	for i := 0; i < 6; i++ {
		k.Spawn("locker", Uthread, &loop{n: 1 << 30, body: func(int) []Action {
			return []Action{Lock(m), Compute(30 * sim.Microsecond), Unlock(m)}
		}}, nil)
	}
	pool.Start()
	kbg.Boot()
	k.Boot()
	r := sim.NewRand(5)
	for step := 0; step < 40; step++ {
		if err := eng.RunUntil(eng.Now() + sim.Time(1+r.Intn(30))*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		cpu := 1 + r.Intn(3)
		if k.Frozen(cpu) {
			_ = k.UnfreezeVCPU(cpu)
		} else if k.ActiveVCPUs() > 1 {
			_ = k.FreezeVCPU(cpu)
		}
		if err := eng.RunUntil(eng.Now() + 40*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, k)
	}
	if m.Acquisitions == 0 {
		t.Fatal("lock workload never ran")
	}
}
