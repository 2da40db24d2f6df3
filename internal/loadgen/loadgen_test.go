package loadgen

import (
	"testing"

	"vscale/internal/guest"
	"vscale/internal/sim"
	"vscale/internal/workload/httpd"
	"vscale/internal/xen"
)

func newRig(t *testing.T, seed uint64, slo sim.Time) (*sim.Engine, *httpd.Server, *Generator) {
	t.Helper()
	eng := sim.NewEngine(seed)
	pool := xen.NewPool(eng, xen.DefaultConfig(4))
	dom := pool.AddDomain("web", 256, 4, nil)
	k := guest.NewKernel(dom, guest.DefaultConfig())
	hcfg := httpd.DefaultConfig()
	link := httpd.NewLink(eng, hcfg.LinkBps)
	srv, err := httpd.NewServer(k, link, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	g := New(eng, srv, sim.NewRand(seed+99), slo)
	pool.Start()
	k.Boot()
	return eng, srv, g
}

func TestOpenLoopLightLoad(t *testing.T) {
	eng, srv, g := newRig(t, 5, 50*sim.Millisecond)
	g.SetRate(1000)
	if err := eng.RunUntil(4 * sim.Second); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	if err := eng.RunUntil(6 * sim.Second); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	// Poisson with mean 1000/s over 4s: expect ~4000 ± a few sigma.
	if st.Offered < 3600 || st.Offered > 4400 {
		t.Fatalf("offered = %d, want ~4000", st.Offered)
	}
	if st.Done != st.Offered {
		t.Fatalf("done = %d, offered = %d: in-flight after drain", st.Done, st.Offered)
	}
	if st.Errors != 0 {
		t.Fatalf("errors = %d at light load", st.Errors)
	}
	if att := st.Attainment(); att != 1 {
		t.Fatalf("attainment = %g at light load, want 1", att)
	}
	if g.Hist().Count() != st.Replies {
		t.Fatalf("hist count %d != replies %d", g.Hist().Count(), st.Replies)
	}
	// Dedicated 4-vCPU host: sub-millisecond p99.
	if p99 := g.Hist().Quantile(0.99); p99 > 2 {
		t.Fatalf("p99 = %.2fms at light load", p99)
	}
	if srv.Err() != nil {
		t.Fatal(srv.Err())
	}
}

func TestSetRateAndPause(t *testing.T) {
	eng, _, g := newRig(t, 7, 50*sim.Millisecond) // idle until the first SetRate
	if err := eng.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if g.Stats().Offered != 0 {
		t.Fatalf("offered = %d while paused", g.Stats().Offered)
	}
	g.SetRate(500)
	if err := eng.RunUntil(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	mid := g.Stats().Offered
	if mid < 800 || mid > 1200 {
		t.Fatalf("offered = %d after 2s at 500/s, want ~1000", mid)
	}
	g.SetRate(0) // pause again
	if err := eng.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if g.Stats().Offered != mid {
		t.Fatalf("offered moved %d -> %d while paused", mid, g.Stats().Offered)
	}
	g.SetRate(500)
	g.Stop()
	if err := eng.RunUntil(7 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if g.Stats().Offered != mid {
		t.Fatalf("offered moved after Stop: %d -> %d", mid, g.Stats().Offered)
	}
	g.SetRate(500) // ignored after Stop
	if g.Rate() != 0 && g.Stats().Offered != mid {
		t.Fatal("SetRate after Stop must not restart arrivals")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() (Stats, float64) {
		eng, _, g := newRig(t, 11, 20*sim.Millisecond)
		g.SetRate(2000)
		if err := eng.RunUntil(3 * sim.Second); err != nil {
			t.Fatal(err)
		}
		g.Stop()
		if err := eng.RunUntil(5 * sim.Second); err != nil {
			t.Fatal(err)
		}
		return g.Stats(), g.Hist().Quantile(0.99)
	}
	s1, p1 := run()
	s2, p2 := run()
	if s1 != s2 || p1 != p2 {
		t.Fatalf("same seed, different results: %+v/%g vs %+v/%g", s1, p1, s2, p2)
	}
}

func TestInFlightAccounting(t *testing.T) {
	eng, _, g := newRig(t, 13, 20*sim.Millisecond)
	g.SetRate(2000)
	if err := eng.RunUntil(500 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	mid := g.Stats()
	if mid.InFlight != mid.Offered-mid.Done {
		t.Fatalf("InFlight = %d, want Offered-Done = %d", mid.InFlight, mid.Offered-mid.Done)
	}
	// In-flight requests count against attainment, not as exclusions.
	if want := float64(mid.SLOOk) / float64(mid.Offered); mid.Attainment() != want {
		t.Fatalf("attainment %g, want SLOOk/Offered = %g (in-flight must count as misses)", mid.Attainment(), want)
	}
	g.Stop()
	if err := eng.RunUntil(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.InFlight != 0 {
		t.Fatalf("InFlight = %d after drain", st.InFlight)
	}
}

func TestTakeWindow(t *testing.T) {
	eng, _, g := newRig(t, 17, 50*sim.Millisecond)
	g.SetRate(1000)
	var winSum Stats
	var winReplies uint64
	for i := 1; i <= 4; i++ {
		if err := eng.RunUntil(sim.Time(i) * 500 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		w, hist := g.TakeWindow()
		winSum.Offered += w.Offered
		winSum.Done += w.Done
		winSum.Replies += w.Replies
		winSum.Errors += w.Errors
		winSum.SLOOk += w.SLOOk
		if hist.Count() != w.Replies {
			t.Fatalf("window %d: hist count %d != window replies %d", i, hist.Count(), w.Replies)
		}
		winReplies += hist.Count()
	}
	cum := g.Stats()
	if winSum.Offered != cum.Offered || winSum.Done != cum.Done ||
		winSum.Replies != cum.Replies || winSum.SLOOk != cum.SLOOk {
		t.Fatalf("window deltas %+v do not sum to the cumulative %+v", winSum, cum)
	}
	if winReplies != g.Hist().Count() {
		t.Fatalf("window histograms hold %d replies, cumulative %d", winReplies, g.Hist().Count())
	}
	// An empty window is all zeros except the point-in-time backlog.
	g.Stop()
	if err := eng.RunUntil(4 * sim.Second); err != nil {
		t.Fatal(err)
	}
	g.TakeWindow()
	w, hist := g.TakeWindow()
	if w.Offered != 0 || w.Replies != 0 || w.InFlight != 0 || hist.Count() != 0 {
		t.Fatalf("idle window not empty: %+v (hist %d)", w, hist.Count())
	}
}

// TestArrivalAllocs gates the arrival process: once warm, one arrival —
// drawing the next gap, scheduling it, and the request the arrival
// offers running to its reply — allocates nothing. Each cycle runs the
// simulation through exactly one arrival.
func TestArrivalAllocs(t *testing.T) {
	eng, _, g := newRig(t, 5, 50*sim.Millisecond)
	g.SetRate(1000)
	if err := eng.RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	arrival := func() {
		if err := eng.RunUntil(g.next.Deadline()); err != nil {
			t.Fatal(err)
		}
	}
	offered := g.Stats().Offered
	if n := testing.AllocsPerRun(100, arrival); n != 0 {
		t.Fatalf("one arrival allocated %v times, want 0", n)
	}
	st := g.Stats()
	if st.Offered-offered != 101 || st.Errors != 0 || st.Replies < st.Offered-3 {
		t.Fatalf("offered %d in 101 cycles (%+v), want 101 answered", st.Offered-offered, st)
	}
}
