package guest

import (
	"fmt"
	"hash/fnv"
	"testing"

	"vscale/internal/sim"
	"vscale/internal/xen"
)

// tickRun is what one run of the tick scenario leaves behind.
type tickRun struct {
	log                             uint64 // FNV-1a over every fired (time, label)
	processed, scheduled, cancelled uint64
	lastCancelAt                    sim.Time
	pending                         []sim.PendingEvent
	stats                           []CPUStats
	cpuTimes                        []sim.Time
	// trivial and retries count, in the run without the short path, the
	// ticks trivialTick accepts and the ticks that meet fullTick's
	// frozen-CPU retry.
	trivial, retries int
}

// runTickScenario runs a consolidated scaling churn: a 4-vCPU VM with a
// contended mutex, a barrier and a sleeper (software timers) beside a
// 2-vCPU hog VM on 2 pCPUs, while vCPUs 1-3 are frozen and unfrozen
// every few milliseconds. The VM's futex bucket locks are held for
// 1.5 ms, so a freeze often finds a thread in a kernel critical section
// and its CPU retries the drain at the next ticks. With short false
// every tick timer is rebuilt under its label to run fullTick, so no
// tick takes tickFire's short path.
func runTickScenario(t *testing.T, seed uint64, short bool) tickRun {
	t.Helper()
	var r tickRun
	eng := sim.NewEngine(seed)
	h := fnv.New64a()
	var buf [8]byte
	eng.SetObserver(func(at sim.Time, label string) {
		for i := range buf {
			buf[i] = byte(uint64(at) >> (8 * i))
		}
		h.Write(buf[:])
		h.Write([]byte(label))
	})
	pool := xen.NewPool(eng, xen.DefaultConfig(2))
	kbg := NewKernel(pool.AddDomain("bg", 256, 2, nil), DefaultConfig())
	for i := 0; i < 2; i++ {
		kbg.Spawn("hog", Uthread, &cycle{acts: []Action{Compute(3 * sim.Millisecond)}}, nil)
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.KernelLockHold = 1500 * sim.Microsecond
	k := NewKernel(pool.AddDomain("vm", 256, 4, nil), cfg)
	m := k.NewMutex()
	b := k.NewBarrier(3, 20*sim.Microsecond)
	for i := 0; i < 4; i++ {
		k.Spawn("locker", Uthread, &cycle{acts: []Action{
			Lock(m), Compute(40 * sim.Microsecond), Unlock(m), Compute(200 * sim.Microsecond),
		}}, nil)
	}
	for i := 0; i < 3; i++ {
		k.Spawn("barrier", Uthread, &cycle{acts: []Action{Compute(900 * sim.Microsecond), BarrierWait(b)}}, nil)
	}
	k.Spawn("sleeper", Uthread, &cycle{acts: []Action{Compute(300 * sim.Microsecond), Sleep(2 * sim.Millisecond)}}, nil)
	for _, kk := range []*Kernel{kbg, k} {
		for _, c := range kk.cpus {
			if !short {
				c.tick = sim.NewTimer(eng, fmt.Sprintf("guest/%s/tick%d", kk.dom.Name, c.id), func() {
					if kk.trivialTick(c) {
						r.trivial++
					}
					if c.running && kk.Frozen(c.id) && c.kspin == nil && !c.pvParked {
						r.retries++
					}
					kk.fullTick(c)
				})
			}
		}
	}
	pool.Start()
	kbg.Boot()
	k.Boot()
	rng := sim.NewRand(seed * 131)
	for step := 0; step < 600; step++ {
		if err := eng.RunUntil(eng.Now() + sim.Time(1+rng.Intn(5))*sim.Millisecond + sim.Time(rng.Intn(1000))*sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		cpu := 1 + rng.Intn(3)
		if k.Frozen(cpu) {
			if err := k.UnfreezeVCPU(cpu); err != nil {
				t.Fatal(err)
			}
		} else if k.ActiveVCPUs() > 1 {
			if err := k.FreezeVCPU(cpu); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.log = h.Sum64()
	r.processed, r.scheduled, r.cancelled, r.lastCancelAt = eng.Processed, eng.Scheduled, eng.Cancelled, eng.LastCancelAt
	r.pending = eng.PendingEvents()
	for _, kk := range []*Kernel{kbg, k} {
		for i := 0; i < kk.NCPUs(); i++ {
			r.stats = append(r.stats, kk.CPUStatsOf(i))
		}
		for _, th := range kk.Threads() {
			r.cpuTimes = append(r.cpuTimes, th.CPUTime)
		}
	}
	return r
}

// TestShortTickMatchesFullTick: tickFire's short path for trivial ticks
// changes nothing. The tick scenario runs as built, where tickFire
// handles each tick trivialTick accepts itself, and again with every
// tick through fullTick. Both runs must fire the same events at the same
// instants under the same labels, end with the same engine counters and
// pending keys, and leave every CPU's counters and every thread's CPU
// time equal. Most ticks must be trivial, and the scenario must meet
// frozen-CPU retries, so that a predicate that let a retry tick through
// would show here.
func TestShortTickMatchesFullTick(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			got, want := runTickScenario(t, seed, true), runTickScenario(t, seed, false)
			if got.log != want.log {
				t.Errorf("firing log hash %#x, want %#x", got.log, want.log)
			}
			if got.processed != want.processed || got.scheduled != want.scheduled ||
				got.cancelled != want.cancelled || got.lastCancelAt != want.lastCancelAt {
				t.Errorf("engine counters %d/%d/%d/%v, want %d/%d/%d/%v",
					got.processed, got.scheduled, got.cancelled, got.lastCancelAt,
					want.processed, want.scheduled, want.cancelled, want.lastCancelAt)
			}
			if fmt.Sprint(got.pending) != fmt.Sprint(want.pending) {
				t.Errorf("pending events differ:\n got %v\nwant %v", got.pending, want.pending)
			}
			if fmt.Sprint(got.stats) != fmt.Sprint(want.stats) {
				t.Errorf("CPU counters differ:\n got %v\nwant %v", got.stats, want.stats)
			}
			if fmt.Sprint(got.cpuTimes) != fmt.Sprint(want.cpuTimes) {
				t.Errorf("thread CPU times differ:\n got %v\nwant %v", got.cpuTimes, want.cpuTimes)
			}
			var ticks uint64
			for _, s := range want.stats {
				ticks += s.TimerInterrupts
			}
			if 2*uint64(want.trivial) < ticks || want.retries == 0 {
				t.Errorf("%d of %d ticks trivial, %d frozen-CPU retries: the scenario misses a path", want.trivial, ticks, want.retries)
			}
		})
	}
}
