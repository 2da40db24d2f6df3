// Package httpd models the paper's Apache web server experiment (Figure
// 14): an Apache-style worker-pool server inside the guest, an
// httperf-style open-loop client on a separate machine, and a shared
// 1 Gbps link. Connection time reflects the latency of processing the
// SYN in the softirq on the interrupt-bound vCPU (delayed whenever that
// vCPU is preempted); response time adds worker scheduling, per-request
// CPU work and the transfer of the 16 KB reply over the link.
package httpd

import (
	"fmt"

	"vscale/internal/guest"
	"vscale/internal/metrics"
	"vscale/internal/sim"
)

// The paper's Apache setup: a 16 KB file served over 1 GbE.
const (
	// requestCPU is the per-request worker CPU time (parse + file read
	// + send for the 16 KB file).
	requestCPU = 240 * sim.Microsecond
	// softirqCost is the per-interrupt network-stack cost.
	softirqCost = 15 * sim.Microsecond
	// fileSize is the reply body size in bytes.
	fileSize = 16 * 1024
	// wireDelay is the one-way wire latency.
	wireDelay = 50 * sim.Microsecond
	// backlog bounds the accept queue; connections arriving beyond it
	// are dropped (listen backlog).
	backlog = 511

	// delayPenaltyThreshold and delayPenalty model the TCP slow path: a
	// request whose RX interrupt sat undelivered longer than the
	// threshold (a preempted interrupt-bound vCPU, Figure 1c) costs
	// extra CPU when finally served — out-of-order/backlog processing
	// and retransmitted segments. Guest-internal queueing does NOT
	// trigger it, only hypervisor-level interrupt delay, so a VM whose
	// vCPUs are scheduled promptly (vScale) never pays it.
	delayPenaltyThreshold = 8 * sim.Millisecond
	delayPenalty          = 600 * sim.Microsecond
)

// Config parameterises the server/client pair.
type Config struct {
	// Workers is the Apache worker-thread pool size.
	Workers int
	// LinkBps is the network link speed in bits/second.
	LinkBps float64
	// Timeout is the client's per-request timeout (httperf --timeout);
	// requests not answered in time count as errors, not replies, even
	// though the server spent CPU on them — which is what makes the
	// baseline's reply rate *decline* past saturation.
	Timeout sim.Time
}

// DefaultConfig matches the paper's setup: 16 KB file over 1 GbE.
func DefaultConfig() Config {
	return Config{
		Workers: 32,
		LinkBps: 1e9,
		Timeout: 500 * sim.Millisecond,
	}
}

// Link is a shared serialising network link.
type Link struct {
	eng      *sim.Engine
	bps      float64
	nextFree sim.Time
}

// NewLink creates a link with the given bit rate.
func NewLink(eng *sim.Engine, bps float64) *Link {
	return &Link{eng: eng, bps: bps}
}

// SetBps changes the link's bit rate from now on. In-flight transfers
// keep their already-computed departure times; only later Sends price
// at the new rate. The cluster uses this to model live-migration
// traffic contending with guest I/O on the host uplink.
func (l *Link) SetBps(bps float64) {
	if bps > 0 {
		l.bps = bps
	}
}

// Send enqueues size bytes and returns the departure (transfer-complete)
// time.
func (l *Link) Send(size int) sim.Time {
	now := l.eng.Now()
	start := now
	if l.nextFree > start {
		start = l.nextFree
	}
	ser := sim.Time(float64(size*8) / l.bps * float64(sim.Second))
	l.nextFree = start + ser
	return l.nextFree
}

// request tracks one client connection through the system. Requests
// are pooled per server (Server.takeRequest, Server.release): one goes
// back on the free list at its terminal event — a reply, a timeout or a
// backlog drop — and is reused by a later connection. Its steps are
// method values bound once, when the request is first made, so a
// recycled request schedules them without allocating.
type request struct {
	s *Server
	connState

	syn, get, reply func()
	synIRQ, getIRQ  func(cpuID int)
}

// connState is a request's per-connection state, zeroed on reuse.
type connState struct {
	t0        sim.Time
	connected sim.Time
	// synAt and getAt are when the SYN and the GET reached the NIC.
	synAt, getAt sim.Time
	// slowPath marks that the request's RX interrupt was delivered late
	// (hypervisor scheduling delay), costing extra CPU to serve.
	slowPath bool
}

func newRequest(s *Server) *request {
	r := &request{s: s}
	r.syn, r.synIRQ = r.synArrived, r.synHandled
	r.get, r.getIRQ = r.getArrived, r.getHandled
	r.reply = r.replied
	return r
}

// Result summarises one load level.
type Result struct {
	RateRequested float64 // requests/s offered
	ReplyRate     float64 // replies/s completed within the timeout
	AvgConnMs     float64 // mean connection time, ms
	AvgRespMs     float64 // mean response time, ms
	Errors        uint64  // drops + timeouts
	RxInterrupts  uint64
}

// Server is the Apache model inside a guest kernel.
type Server struct {
	k       *guest.Kernel
	cfg     Config
	dev     *guest.Device
	acceptQ *guest.WaitQueue
	// acceptMu serialises accept() among workers (Apache's accept
	// mutex). Its futex traffic goes through the kernel bucket locks, so
	// lock-holder preemption hits this path exactly as on real
	// Xen/Linux — and pv-spinlocks recover part of it.
	acceptMu *guest.Mutex
	link     *Link

	conn metrics.Summary // connection times (ms)
	resp metrics.Summary // response times (ms)

	replies uint64
	errors  uint64

	// free holds the requests that reached their terminal event, for
	// reuse by later connections.
	free []*request

	// err records the first internal fault (e.g. a worker reaching an
	// undefined phase); subsequent faults are dropped. A faulted worker
	// exits instead of panicking, so one malformed config cannot kill a
	// whole sweep worker.
	err error

	// OnComplete, when set, is invoked once per request at its terminal
	// event: a reply delivered within the timeout (ok=true), a timeout
	// (ok=false), or a backlog drop (ok=false). lat is the time from
	// injection to the terminal event. Load generators hook this to
	// build latency distributions without touching server internals.
	OnComplete func(lat sim.Time, ok bool)
}

// NewServer builds the server: a network device bound to vCPU0 and a
// worker pool blocked on the accept queue. It rejects malformed
// configurations up front so a bad sweep parameter surfaces as an error
// instead of a mid-simulation fault.
func NewServer(k *guest.Kernel, link *Link, cfg Config) (*Server, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if link == nil {
		return nil, fmt.Errorf("httpd: nil link")
	}
	s := &Server{k: k, cfg: cfg, link: link}
	s.dev = k.NewDevice("eth0", 0, softirqCost)
	s.acceptQ = k.NewWaitQueue(backlog)
	s.acceptMu = k.NewMutex()
	for w := 0; w < cfg.Workers; w++ {
		s.spawnWorker(w)
	}
	return s, nil
}

// validate rejects configurations the model cannot run sensibly.
func validate(cfg Config) error {
	switch {
	case cfg.Workers <= 0:
		return fmt.Errorf("httpd: Workers = %d, need > 0", cfg.Workers)
	case cfg.LinkBps <= 0:
		return fmt.Errorf("httpd: LinkBps = %g, need > 0", cfg.LinkBps)
	case cfg.Timeout <= 0:
		return fmt.Errorf("httpd: Timeout = %v, need > 0", cfg.Timeout)
	}
	return nil
}

// fail records the first internal fault.
func (s *Server) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Err returns the first internal fault, if any. Callers should check it
// after the simulation window: a non-nil error means results are
// incomplete (some workers exited early).
func (s *Server) Err() error { return s.err }

// worker is the Program of one Apache worker thread: accept a
// connection, take the socket-lock round, serve the request, transmit
// the reply. Its actions are built once, when the worker is spawned.
type worker struct {
	s     *Server
	id    int
	phase int
	cur   *request

	accept, lock, unlock, send guest.Action
}

func (s *Server) spawnWorker(id int) {
	w := &worker{s: s, id: id}
	w.accept = guest.Dequeue(s.acceptQ)
	w.lock = guest.Lock(s.acceptMu)
	w.unlock = guest.Unlock(s.acceptMu)
	w.send = guest.Call(5*sim.Microsecond, w.transmit)
	s.k.Spawn("httpd-worker", guest.Uthread, w, nil)
}

// Next implements guest.Program.
func (w *worker) Next(t *guest.Thread) guest.Action {
	switch w.phase {
	case 0: // accept: block on the socket wait queue (wake-one)
		w.phase = 1
		return w.accept
	case 1: // socket-lock round: sys_accept takes the socket lock
		// briefly (kernel bucket-lock traffic, the pv-spinlock surface),
		// without holding it across blocking.
		w.cur = t.Mailbox.(*request)
		w.phase = 2
		return w.lock
	case 2:
		w.phase = 3
		return w.unlock
	case 3: // request work: parse + read the 16 KB file + build reply
		w.phase = 4
		work := requestCPU
		if w.cur.slowPath {
			work += delayPenalty
		}
		return guest.Compute(work)
	case 4: // transmit the reply over the shared link
		w.phase = 0
		return w.send
	default:
		// An undefined phase means the worker state machine was
		// corrupted (a programming or config error). Record it and
		// retire this worker; the rest of the sweep keeps running.
		w.s.fail(fmt.Errorf("httpd: worker %d reached undefined phase %d", w.id, w.phase))
		return guest.Exit()
	}
}

// transmit is the send action's body: the reply leaves over the shared
// link and reaches the client one wire delay after its departure.
func (w *worker) transmit(*guest.Thread) {
	r := w.cur
	w.cur = nil
	dep := w.s.link.Send(fileSize)
	w.s.k.Engine().At(dep+wireDelay, "httpd/reply", r.reply)
}

// takeRequest returns a request for a connection offered now: a
// recycled one from the free list, or a new one when the list is empty.
func (s *Server) takeRequest() *request {
	var r *request
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		r = newRequest(s)
	}
	r.connState = connState{t0: s.k.Engine().Now()}
	return r
}

// release puts r back on the free list at its terminal event.
func (s *Server) release(r *request) { s.free = append(s.free, r) }

// Client drives the server open-loop at a constant rate for a duration
// and returns the measured result.
type Client struct {
	k    *guest.Kernel
	s    *Server
	rand *sim.Rand
}

// NewClient pairs a client with a server.
func NewClient(s *Server, rand *sim.Rand) *Client {
	return &Client{k: s.k, s: s, rand: rand}
}

// Run offers ratePerSec connections/s for the given duration, starting
// now: one arrival per 1/ratePerSec gap, each jittered by up to a tenth
// of the gap, httperf style. The arrival instants are drawn up front, in
// order, and handed to the engine as one sim.Engine.Series, so the
// pending-event set holds one arrival at a time however long the window.
// Run returns after scheduling; read Results after the simulation has
// advanced past the drain time. A zero rate offers nothing; a rate that
// sim.CheckRate rejects is an error, and nothing is scheduled.
func (c *Client) Run(ratePerSec float64, duration sim.Time) error {
	if err := sim.CheckRate(ratePerSec); err != nil {
		return fmt.Errorf("httpd: %w", err)
	}
	if ratePerSec == 0 {
		return nil
	}
	gap := sim.Time(float64(sim.Second) / ratePerSec)
	n := int(float64(duration) / float64(gap))
	if n <= 0 {
		return nil
	}
	eng := c.k.Engine()
	start := eng.Now()
	at := make([]sim.Time, n)
	for i := range at {
		at[i] = start + sim.Time(i)*gap + c.rand.Duration(0, gap/10)
	}
	eng.Series(at, "httpd/arrival", c.s.Offer)
	return nil
}

// Offer injects one connection at the current simulation time: SYN
// interrupt → softirq (connection established; connection time
// recorded) → after a client turnaround the GET arrives → softirq posts
// it to the accept queue (or drops it when the backlog is full). Load
// generators call this directly; the terminal outcome is reported
// through OnComplete.
func (s *Server) Offer() {
	r := s.takeRequest()
	s.k.Engine().After(wireDelay, "httpd/syn", r.syn)
}

// synArrived: the SYN reaches the NIC and raises its interrupt.
func (r *request) synArrived() {
	r.synAt = r.s.k.Engine().Now()
	r.s.dev.Raise(r.synIRQ)
}

// synHandled is the SYN's softirq. The SYN-ACK leaves immediately. If
// the SYN sat pending behind a preempted vCPU, the connection takes the
// TCP slow path (backlog processing, possible client retransmission)
// and will cost extra CPU to serve.
func (r *request) synHandled(int) {
	s := r.s
	eng := s.k.Engine()
	if eng.Now()-r.synAt > delayPenaltyThreshold {
		r.slowPath = true
	}
	r.connected = eng.Now() + wireDelay
	s.conn.Observe((r.connected - r.t0).Milliseconds())
	// Client turnaround: ACK + GET arrive one RTT later.
	eng.After(2*wireDelay, "httpd/get", r.get)
}

// getArrived: the GET reaches the NIC and raises its interrupt.
func (r *request) getArrived() {
	r.getAt = r.s.k.Engine().Now()
	r.s.dev.Raise(r.getIRQ)
}

// getHandled is the GET's softirq: queue the connection for a worker,
// or reset it when the listen backlog is full (a terminal event).
func (r *request) getHandled(cpuID int) {
	s := r.s
	now := s.k.Engine().Now()
	if now-r.getAt > delayPenaltyThreshold {
		r.slowPath = true
	}
	if s.acceptQ.Post(r, cpuID) {
		return
	}
	s.errors++ // backlog overflow: connection reset
	lat := now - r.t0
	s.release(r)
	if s.OnComplete != nil {
		s.OnComplete(lat, false)
	}
}

// replied: the reply reaches the client (a terminal event). A reply
// later than the client's timeout counts as an error, not a reply.
func (r *request) replied() {
	s := r.s
	lat := s.k.Engine().Now() - r.t0
	ok := lat <= s.cfg.Timeout
	if ok {
		s.replies++
		s.resp.Observe(lat.Milliseconds())
	} else {
		s.errors++
	}
	s.release(r)
	if s.OnComplete != nil {
		s.OnComplete(lat, ok)
	}
}

// Result summarises the run: reply rate over the measurement window.
func (s *Server) Result(rate float64, window sim.Time) Result {
	return Result{
		RateRequested: rate,
		ReplyRate:     float64(s.replies) / window.Seconds(),
		AvgConnMs:     s.conn.Mean(),
		AvgRespMs:     s.resp.Mean(),
		Errors:        s.errors,
		RxInterrupts:  s.dev.Interrupts,
	}
}

// Replies returns the number of completed replies so far.
func (s *Server) Replies() uint64 { return s.replies }

// Errors returns drops plus timeouts so far.
func (s *Server) Errors() uint64 { return s.errors }

// Device exposes the network device (for IRQ-binding inspection).
func (s *Server) Device() *guest.Device { return s.dev }
