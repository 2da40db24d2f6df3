package httpd

import (
	"math"
	"slices"
	"testing"

	"vscale/internal/guest"
	"vscale/internal/sim"
	"vscale/internal/xen"
)

func newServer(t *testing.T, pcpus, vcpus int, cfg Config) (*sim.Engine, *Server, *Client) {
	t.Helper()
	eng := sim.NewEngine(23)
	pool := xen.NewPool(eng, xen.DefaultConfig(pcpus))
	dom := pool.AddDomain("web", 256, vcpus, nil)
	k := guest.NewKernel(dom, guest.DefaultConfig())
	link := NewLink(eng, cfg.LinkBps)
	srv, err := NewServer(k, link, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(srv, sim.NewRand(31))
	pool.Start()
	k.Boot()
	return eng, srv, cl
}

func TestLinkSerialization(t *testing.T) {
	eng := sim.NewEngine(1)
	link := NewLink(eng, 1e9)
	// 16KB at 1Gbps = 131.072µs.
	dep1 := link.Send(16 * 1024)
	want := sim.Time(float64(16*1024*8) / 1e9 * float64(sim.Second))
	if dep1 != want {
		t.Fatalf("first departure = %v, want %v", dep1, want)
	}
	dep2 := link.Send(16 * 1024)
	if dep2 != 2*want {
		t.Fatalf("second departure = %v, want serialized %v", dep2, 2*want)
	}
}

func TestLinkCapacityBound(t *testing.T) {
	// The 1GbE link caps 16KB replies at ~7.6K/s; the paper's saturation
	// point is ~7K/s.
	perReply := float64(16*1024*8) / 1e9
	cap := 1 / perReply
	if cap < 7000 || cap > 8000 {
		t.Fatalf("link capacity = %.0f replies/s, expected ~7.6K", cap)
	}
}

func TestServerLightLoadAllReplied(t *testing.T) {
	eng, srv, cl := newServer(t, 4, 4, DefaultConfig())
	cl.Run(1000, 2*sim.Second)
	if err := eng.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	res := srv.Result(1000, 2*sim.Second)
	if math.Abs(res.ReplyRate-1000) > 30 {
		t.Fatalf("reply rate = %.0f, want ~1000", res.ReplyRate)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d at light load", res.Errors)
	}
	// Connection and response times are sub-millisecond on a dedicated
	// host.
	if res.AvgConnMs > 1 || res.AvgRespMs > 2 {
		t.Fatalf("light-load latencies: conn %.2fms resp %.2fms", res.AvgConnMs, res.AvgRespMs)
	}
	// Two RX interrupts per request (SYN + GET).
	perReq := float64(res.RxInterrupts) / 2000
	if perReq < 1.9 || perReq > 2.1 {
		t.Fatalf("RX interrupts per request = %.2f, want 2", perReq)
	}
}

func TestServerOverloadDropsAndErrors(t *testing.T) {
	cfg := DefaultConfig()
	eng, srv, cl := newServer(t, 2, 2, cfg) // small VM: CPU-capped
	cl.Run(20000, 2*sim.Second)
	if err := eng.RunUntil(6 * sim.Second); err != nil {
		t.Fatal(err)
	}
	res := srv.Result(20000, 2*sim.Second)
	if res.Errors == 0 {
		t.Fatal("overload must produce drops/timeouts")
	}
	if res.ReplyRate > 12000 {
		t.Fatalf("reply rate = %.0f beyond capacity", res.ReplyRate)
	}
}

func TestRepliesWithinTimeoutOnly(t *testing.T) {
	cfg := DefaultConfig()
	// Below the 16KB link serialization time: impossible to meet.
	cfg.Timeout = 100 * sim.Microsecond
	eng, srv, cl := newServer(t, 4, 4, cfg)
	cl.Run(500, sim.Second)
	if err := eng.RunUntil(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if srv.Replies() != 0 {
		t.Fatalf("replies = %d with 1ms timeout", srv.Replies())
	}
	if srv.Errors() == 0 {
		t.Fatal("timeouts must be counted as errors")
	}
}

func TestDeviceBinding(t *testing.T) {
	eng, srv, cl := newServer(t, 4, 4, DefaultConfig())
	if srv.Device().BoundCPU() != 0 {
		t.Fatal("eth0 should start bound to vCPU0")
	}
	cl.Run(100, sim.Second)
	if err := eng.RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if srv.Device().Interrupts == 0 {
		t.Fatal("no interrupts delivered")
	}
}

// TestRunRejectsBadRate checks that a rate sim.CheckRate rejects is an
// error and schedules nothing.
func TestRunRejectsBadRate(t *testing.T) {
	eng, _, cl := newServer(t, 1, 1, DefaultConfig())
	before := eng.Scheduled
	for _, rate := range []float64{math.NaN(), math.Inf(1), 2e9, 1e-300, -5} {
		if err := cl.Run(rate, sim.Second); err == nil {
			t.Fatalf("Run(%g): want error", rate)
		}
	}
	if eng.Scheduled != before {
		t.Fatalf("rejected rates scheduled %d events", eng.Scheduled-before)
	}
}

func TestZeroRateNoop(t *testing.T) {
	eng, srv, cl := newServer(t, 1, 1, DefaultConfig())
	if err := cl.Run(0, sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if srv.Replies() != 0 || srv.Errors() != 0 {
		t.Fatal("zero rate should do nothing")
	}
}

// roundTrip offers one connection to srv and runs the simulation until
// its reply reaches the client.
func roundTrip(t *testing.T, eng *sim.Engine, srv *Server) {
	t.Helper()
	replies := srv.Replies()
	srv.Offer()
	for srv.Replies() == replies {
		if err := eng.RunUntil(eng.Now() + 100*sim.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRequestRoundTripAllocs gates the request path: once the server is
// warm, a connection from Offer to its reply at the client (SYN and GET
// interrupts, accept queue, a worker's lock round, compute and send)
// reuses a pooled request and its bound steps and allocates nothing.
func TestRequestRoundTripAllocs(t *testing.T) {
	eng, srv, _ := newServer(t, 2, 2, DefaultConfig())
	for i := 0; i < 5; i++ {
		roundTrip(t, eng, srv)
	}
	if n := testing.AllocsPerRun(100, func() { roundTrip(t, eng, srv) }); n != 0 {
		t.Fatalf("request round trip allocated %v times, want 0", n)
	}
	if srv.Errors() != 0 || len(srv.free) != 1 {
		t.Fatalf("errors = %d, free requests = %d; want 0 and 1", srv.Errors(), len(srv.free))
	}
}

// hogProgram computes in 1 ms steps while *on is set, then exits.
type hogProgram struct{ on *bool }

func (p hogProgram) Next(*guest.Thread) guest.Action {
	if *p.on {
		return guest.Compute(sim.Millisecond)
	}
	return guest.Exit()
}

// TestRecycledRequestStartsClean recycles a pooled request through each
// terminal event — a slow-path reply, a timeout and a backlog drop —
// each time with the slow-path flag and the timestamps of its old use
// still set, and checks that its next use starts clean: on the fast
// path, with timestamps of its own, charged requestCPU and not the
// penalty.
func TestRecycledRequestStartsClean(t *testing.T) {
	// One pCPU shared by the web VM and a second VM. While hog is set a
	// thread in each VM computes, so the two VMs alternate in credit
	// slices and an interrupt raised at the start of the other VM's
	// slice waits it out: the hypervisor delay of the TCP slow path.
	eng := sim.NewEngine(23)
	pool := xen.NewPool(eng, xen.DefaultConfig(1))
	web := pool.AddDomain("web", 256, 1, nil)
	k := guest.NewKernel(web, guest.DefaultConfig())
	srv, err := NewServer(k, NewLink(eng, 1e9), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	other := guest.NewKernel(pool.AddDomain("other", 256, 1, nil), guest.DefaultConfig())
	hog := false
	var oks []bool
	srv.OnComplete = func(_ sim.Time, ok bool) { oks = append(oks, ok) }
	pool.Start()
	k.Boot()
	other.Boot()

	step := func() {
		t.Helper()
		if eng.Now() > 20*sim.Second {
			t.Fatalf("stuck at %v after %d terminal events", eng.Now(), len(oks))
		}
		if err := eng.RunUntil(eng.Now() + 100*sim.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	// untilTerminal runs until n requests in all reached a terminal
	// event.
	untilTerminal := func(n int) {
		t.Helper()
		for len(oks) < n {
			step()
		}
	}
	// hogsOn starts the hogs and returns at the start of a slice of the
	// other VM.
	hogsOn := func() {
		t.Helper()
		hog = true
		k.Spawn("hog", guest.Uthread, hogProgram{&hog}, nil)
		other.Spawn("hog", guest.Uthread, hogProgram{&hog}, nil)
		for cur := pool.PCPUs()[0].Current(); cur == nil || cur.Domain() != other.Domain(); cur = pool.PCPUs()[0].Current() {
			step()
		}
	}
	hogsOff := func() {
		hog = false
		if err := eng.RunUntil(eng.Now() + 100*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	workerCPU := func() sim.Time {
		var sum sim.Time
		for _, th := range k.Threads() {
			if th.Name == "httpd-worker" {
				sum += th.CPUTime
			}
		}
		return sum
	}
	// reuse serves one connection on the recycled request r (on top of
	// the free list) and checks it was served as a fresh request.
	reuse := func(after string, r *request) {
		t.Helper()
		if !r.slowPath || r.t0 == 0 || r.connected == 0 || r.synAt == 0 || r.getAt == 0 {
			t.Fatalf("after %s: the recycled request kept no stale state to clear: %+v", after, r.connState)
		}
		if srv.free[len(srv.free)-1] != r {
			t.Fatalf("after %s: the recycled request is not next on the free list", after)
		}
		cpu, start := workerCPU(), eng.Now()
		srv.Offer()
		untilTerminal(len(oks) + 1)
		if !oks[len(oks)-1] {
			t.Fatalf("after %s: the reused request was not replied", after)
		}
		if srv.free[len(srv.free)-1] != r {
			t.Fatalf("after %s: the connection did not reuse the recycled request", after)
		}
		if r.slowPath {
			t.Fatalf("after %s: the reused request took the slow path", after)
		}
		if r.t0 != start || r.synAt <= start || r.getAt <= r.synAt || r.connected <= start {
			t.Fatalf("after %s: the reused request's times are not its own: %+v (offered at %v)", after, r.connState, start)
		}
		if got := workerCPU() - cpu; got != requestCPU {
			t.Fatalf("after %s: the request cost %v of worker CPU, want requestCPU %v", after, got, requestCPU)
		}
	}

	// A slow-path reply.
	hogsOn()
	srv.Offer()
	untilTerminal(len(oks) + 1)
	r := srv.free[len(srv.free)-1]
	if !oks[len(oks)-1] || !r.slowPath {
		t.Fatalf("want a slow-path reply: ok=%v slowPath=%v", oks[len(oks)-1], r.slowPath)
	}
	hogsOff()
	reuse("a slow-path reply", r)

	// A timeout: the delayed request is answered after the client gave up.
	srv.cfg.Timeout = 10 * sim.Millisecond
	hogsOn()
	srv.Offer()
	untilTerminal(len(oks) + 1)
	r = srv.free[len(srv.free)-1]
	if oks[len(oks)-1] {
		t.Fatal("want a timeout")
	}
	srv.cfg.Timeout = DefaultConfig().Timeout
	hogsOff()
	reuse("a timeout", r)

	// A backlog drop: backlog+1 connections offered at once connect in
	// one delayed batch, and their GETs arrive together; the last finds
	// the accept queue full.
	hogsOn()
	all := len(oks) + backlog + 1
	for i := 0; i <= backlog; i++ {
		srv.Offer()
	}
	untilTerminal(len(oks) + 1)
	r = srv.free[len(srv.free)-1]
	if oks[len(oks)-1] || srv.acceptQ.Drops != 1 {
		t.Fatalf("want one backlog drop, got ok=%v drops=%d", oks[len(oks)-1], srv.acceptQ.Drops)
	}
	hogsOff()
	untilTerminal(all)
	i := slices.Index(srv.free, r)
	last := len(srv.free) - 1
	srv.free[i], srv.free[last] = srv.free[last], srv.free[i]
	reuse("a backlog drop", r)
}
