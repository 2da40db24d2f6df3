// Package dom0 models Xen's control domain and its libxl/XenStore
// toolstack, which the paper's Figure 4 evaluates as the centralised
// alternative to vScale's per-VM channel. dom0 forwards all guest I/O
// through its backend drivers, so toolstack operations (reading VM CPU
// consumptions, writing vCPU availability for hotplug) queue behind I/O
// forwarding work; the busier dom0 is, the slower — and more variable —
// monitoring becomes, and the cost grows linearly with the number of
// VMs. vScale's channel (Table 1) bypasses all of this.
package dom0

import (
	"fmt"

	"vscale/internal/costmodel"
	"vscale/internal/sim"
)

// Workload describes dom0's background I/O forwarding load.
type Workload int

// Background workload kinds for the monitoring experiment (Figure 4).
const (
	// Idle: no guest I/O is being forwarded.
	Idle Workload = iota
	// DiskIO: one VM performs disk I/O through dom0's block backend.
	DiskIO
	// NetworkIO: one VM transmits over the network through dom0's
	// netback (the heaviest case in the paper).
	NetworkIO
)

func (w Workload) String() string {
	switch w {
	case Idle:
		return "w/o workload"
	case DiskIO:
		return "w/ disk I/O"
	case NetworkIO:
		return "w/ network I/O"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// Toolstack queueing parameters fitted to Figure 4: the probability
// that a toolstack operation finds dom0's event loop busy forwarding
// I/O, and the log-normal queueing delay per VM read (median in
// microseconds, σ). Network I/O inflates a 50-VM sweep from ~24 ms to
// >6 ms average with ~30 ms maxima.
const (
	diskBusyProb   float64 = 0.35
	netBusyProb    float64 = 0.55
	diskDelayMean  float64 = 160 // µs median extra per read under disk I/O
	diskDelaySigma float64 = 0.9
	netDelayMean   float64 = 320 // µs median extra per read under network I/O
	netDelaySigma  float64 = 1.1
)

// Dom0 models the control domain's toolstack.
type Dom0 struct {
	rand *sim.Rand

	// Reads counts completed monitoring sweeps.
	Reads uint64
}

// New creates a dom0 model.
func New(rand *sim.Rand) *Dom0 {
	return &Dom0{rand: rand}
}

// ReadVMStats returns the latency of one monitoring sweep over nVMs
// guests under the given background workload. This is the operation
// VCPU-Bal performs centrally, growing linearly with VM count.
//
// The cost model is fitted to the paper's Figure 4 as:
//
//	T(n) = Σ_{i=1..n} [ 480 µs · (1 ± 0.1 uniform) + Q_i(w) ]
//
// where 480 µs (costmodel.LibxlPerVMRead) is the idle per-VM libxl read
// and Q_i(w) is the queueing delay behind dom0's I/O forwarding: zero
// when idle; with probability 0.35 (disk I/O) or 0.55 (network I/O) a
// log-normal delay with median 160 µs (σ=0.9) or 320 µs (σ=1.1)
// respectively. That reproduces Figure 4's linear growth — an idle
// 50-VM sweep averages ~24 ms — and its inflation and variance under
// I/O load, with network I/O the heaviest (≈30 ms maxima at 50 VMs).
func (d *Dom0) ReadVMStats(nVMs int, w Workload) sim.Time {
	if nVMs <= 0 {
		return 0
	}
	d.Reads++
	var total sim.Time
	for i := 0; i < nVMs; i++ {
		// Base cost with mild per-read jitter (±10%).
		base := costmodel.LibxlPerVMRead
		jitter := sim.Time(float64(base) * 0.1 * (2*d.rand.Float64() - 1))
		total += base + jitter
		total += d.queueDelay(w)
	}
	return total
}

// queueDelay samples the extra delay one read suffers behind dom0 I/O.
func (d *Dom0) queueDelay(w Workload) sim.Time {
	var prob, mean, sigma float64
	switch w {
	case Idle:
		return 0
	case DiskIO:
		prob, mean, sigma = diskBusyProb, diskDelayMean, diskDelaySigma
	case NetworkIO:
		prob, mean, sigma = netBusyProb, netDelayMean, netDelaySigma
	default:
		return 0
	}
	if d.rand.Float64() >= prob {
		return 0
	}
	return sim.FromMicros(mean * d.rand.LogNormal(0, sigma))
}

// FleetSweep extends the Figure 4 cost model to the multi-host case: a
// central VCPU-Bal-style monitor must sweep every host's dom0 each
// period, and each host's sweep pays that host's own per-VM read costs
// and queueing delays. The returned slice holds one sweep latency per
// host (vmsPerHost[h] VMs under workload w); hosts with no VMs cost
// zero. The monitoring period must cover max (parallel monitors, one
// per host) or sum (one sequential monitor) of the entries — either
// way the fleet cost grows with total VM count, which is the
// scalability argument for vScale's per-host, per-VM channels.
func (d *Dom0) FleetSweep(vmsPerHost []int, w Workload) []sim.Time {
	out := make([]sim.Time, len(vmsPerHost))
	for h, n := range vmsPerHost {
		out[h] = d.ReadVMStats(n, w)
	}
	return out
}

// RandState exports the sampler's PRNG state for a checkpoint
// (docs/checkpoint.md); Reads is exported and captured directly.
func (d *Dom0) RandState() sim.RandState { return d.rand.State() }

// RestoreRand overwrites the sampler's PRNG state from a checkpoint.
func (d *Dom0) RestoreRand(st sim.RandState) error { return d.rand.SetState(st) }
