package xen

import (
	"fmt"
	"testing"

	"vscale/internal/sim"
)

// TestCPUTimeConservation checks the fundamental accounting identity of
// the hypervisor under random mixes of hog/idle/bursty domains and both
// scheduling policies: total domain runtime plus pool idle time equals
// pCPUs × elapsed time, exactly.
func TestCPUTimeConservation(t *testing.T) {
	for _, policy := range []SchedPolicy{PolicyCredit, PolicyVRT} {
		for seed := uint64(1); seed <= 6; seed++ {
			policy, seed := policy, seed
			t.Run(fmt.Sprintf("%v-seed%d", policy, seed), func(t *testing.T) {
				r := sim.NewRand(seed)
				eng := sim.NewEngine(seed)
				cfg := DefaultConfig(1 + r.Intn(8))
				cfg.Policy = policy
				pool := NewPool(eng, cfg)
				if seed%2 == 0 {
					pool.EnableVScale()
				}

				nDoms := 1 + r.Intn(6)
				for i := 0; i < nDoms; i++ {
					nv := 1 + r.Intn(4)
					g := newFakeGuest(eng, pool, nv)
					d := pool.AddDomain(fmt.Sprintf("d%d", i), float64(64*(1+r.Intn(8))), nv, g)
					g.dom = d
					for v := 0; v < nv; v++ {
						switch r.Intn(3) {
						case 0:
							g.hog(v)
							d.KickVCPU(v)
						case 1:
							// Bursty: woken periodically with finite work.
							v := v
							g.onEvent = func(vc int, port *Port) {
								if port.Kind == PortIPI && g.work[vc] == 0 {
									g.work[vc] = sim.Time(1+r.Intn(20)) * sim.Millisecond
									g.Descheduled(vc)
									g.Dispatched(vc)
								}
							}
							every(eng, "burst", sim.Time(50+r.Intn(200))*sim.Millisecond,
								func() { d.KickVCPU(v) })
						default:
							// stays blocked
						}
					}
				}
				pool.Start()
				elapsed := sim.Time(2+r.Intn(4)) * sim.Second
				if err := eng.RunUntil(elapsed); err != nil {
					t.Fatal(err)
				}
				var run sim.Time
				for _, d := range pool.Domains() {
					for i := 0; i < d.VCPUCount(); i++ {
						if d.VCPU(i).State() == StateRunning {
							pool.burnRunning(d.VCPU(i))
						}
					}
					run += d.TotalRunTime
				}
				total := run + pool.Idle()
				want := sim.Time(cfg.PCPUs) * elapsed
				if total != want {
					t.Fatalf("conservation violated: run %v + idle %v = %v, want %v",
						run, pool.Idle(), total, want)
				}
			})
		}
	}
}

// TestWaitPlusRunBounded: a vCPU's accounted run+wait time never exceeds
// elapsed wall time.
func TestWaitPlusRunBounded(t *testing.T) {
	eng, pool := setup(t, 2, false)
	doms := make([]*Domain, 3)
	for i := range doms {
		doms[i], _ = addHogDomain(eng, pool, fmt.Sprintf("d%d", i), 256, 2)
	}
	pool.Start()
	const elapsed = 3 * sim.Second
	if err := eng.RunUntil(elapsed); err != nil {
		t.Fatal(err)
	}
	for _, d := range doms {
		for i := 0; i < d.VCPUCount(); i++ {
			v := d.VCPU(i)
			if v.State() == StateRunning {
				pool.burnRunning(v)
			}
			if v.RunTime+v.WaitTime > elapsed+sim.Millisecond {
				t.Fatalf("%s.%d: run %v + wait %v exceeds elapsed %v",
					d.Name, i, v.RunTime, v.WaitTime, elapsed)
			}
			if v.RunTime == 0 {
				t.Fatalf("%s.%d never ran", d.Name, i)
			}
		}
	}
}

// TestRunqueueStateConsistency: after heavy churn, every runnable vCPU
// is in exactly one runqueue and every running vCPU is some pCPU's
// current.
func TestRunqueueStateConsistency(t *testing.T) {
	eng, pool := setup(t, 3, true)
	for i := 0; i < 4; i++ {
		addHogDomain(eng, pool, fmt.Sprintf("d%d", i), 128*float64(i+1), 2)
	}
	pool.Start()
	check := func() {
		placed := make(map[*VCPU]string)
		for _, p := range pool.PCPUs() {
			if cur := p.Current(); cur != nil {
				if prev, ok := placed[cur]; ok {
					t.Fatalf("vCPU placed twice: %s and current@%d", prev, p.ID())
				}
				placed[cur] = fmt.Sprintf("current@%d", p.ID())
				if cur.State() != StateRunning {
					t.Fatalf("current vCPU in state %v", cur.State())
				}
			}
			for _, v := range p.runq {
				if prev, ok := placed[v]; ok {
					t.Fatalf("vCPU placed twice: %s and runq@%d", prev, p.ID())
				}
				placed[v] = fmt.Sprintf("runq@%d", p.ID())
				if v.State() != StateRunnable {
					t.Fatalf("queued vCPU in state %v", v.State())
				}
			}
		}
		for _, d := range pool.Domains() {
			for i := 0; i < d.VCPUCount(); i++ {
				v := d.VCPU(i)
				if _, ok := placed[v]; (v.State() == StateRunning || v.State() == StateRunnable) != ok {
					t.Fatalf("%s.%d state %v placement mismatch", d.Name, i, v.State())
				}
			}
		}
	}
	for step := 0; step < 50; step++ {
		if err := eng.RunUntil(eng.Now() + 37*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		check()
	}
}
