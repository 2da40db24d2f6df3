package loadgen

import (
	"fmt"

	"vscale/internal/metrics"
	"vscale/internal/sim"
)

// Checkpoint support (docs/checkpoint.md). A generator is captured only
// while paused with no requests in flight — the quiesce barrier pauses
// every generator one epoch early so the pipeline drains. In that shape
// the arrival process is fully described by the PRNG state and the rate:
// no pending-arrival event exists, and Resume re-arms from the captured
// stream exactly as the straight-through run does at the same boundary.

// State is the semantic state of a paused, drained generator.
type State struct {
	Rand    sim.RandState          `json:"rand"`
	Rate    float64                `json:"rate"`
	Stopped bool                   `json:"stopped"`
	Stats   Stats                  `json:"stats"`
	WinLast Stats                  `json:"win_last"`
	Hist    metrics.HistogramState `json:"hist"`
	WinHist metrics.HistogramState `json:"win_hist"`
}

// Pause cancels the pending arrival (discarding its drawn inter-arrival
// gap) and holds the stream until Resume. Requests already in flight
// still complete. Pausing is part of the deterministic schedule: the
// straight-through and forked runs pause at the same simulated time with
// the same PRNG state, so both discard the same variate.
func (g *Generator) Pause() {
	g.next.Stop()
	g.paused = true
}

// Resume re-arms the arrival process after Pause, drawing the next
// inter-arrival gap from the current PRNG state.
func (g *Generator) Resume() {
	if !g.paused {
		return
	}
	g.paused = false
	g.arm()
}

// CheckpointState exports the generator's state. It errors unless the
// generator is paused (or stopped) with every offered request terminal —
// an undrained pipeline means in-flight closures the checkpoint cannot
// represent.
func (g *Generator) CheckpointState() (State, error) {
	if g.next.Armed() {
		return State{}, fmt.Errorf("loadgen: arrival still armed; Pause before checkpointing")
	}
	if !g.paused && !g.stopped {
		return State{}, fmt.Errorf("loadgen: generator neither paused nor stopped")
	}
	if g.stats.Offered != g.stats.Done {
		return State{}, fmt.Errorf("loadgen: %d requests still in flight", g.stats.Offered-g.stats.Done)
	}
	return State{
		Rand:    g.rand.State(),
		Rate:    g.rate,
		Stopped: g.stopped,
		Stats:   g.stats,
		WinLast: g.winLast,
		Hist:    g.hist.State(),
		WinHist: g.winHist.State(),
	}, nil
}

// RestoreState overwrites the generator from a capture and leaves it
// paused; the restoring fleet calls Resume at the barrier, in admission
// order, exactly as the straight-through run does. A rate that
// sim.CheckRate rejects is an error here, not a panic at Resume.
func (g *Generator) RestoreState(st State) error {
	if err := sim.CheckRate(st.Rate); err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	if err := g.hist.Restore(st.Hist); err != nil {
		return fmt.Errorf("loadgen: latency histogram: %w", err)
	}
	if err := g.winHist.Restore(st.WinHist); err != nil {
		return fmt.Errorf("loadgen: window histogram: %w", err)
	}
	if err := g.rand.SetState(st.Rand); err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	g.next.Stop()
	g.rate = st.Rate
	g.stopped = st.Stopped
	g.paused = true
	g.stats = st.Stats
	g.winLast = st.WinLast
	return nil
}
