package httpd

import (
	"math"
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
