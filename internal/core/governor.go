package core

// Governor converts a stream of optimal-vCPU readings into actual scaling
// decisions for one VM. Scaling up is applied immediately (the VM should
// exploit new capacity as soon as it appears, and an idle extra vCPU is
// cheap), while scaling down waits for the reading to persist for
// DownHysteresis consecutive periods so a single-period dip — one
// background-VM burst straddling a measurement boundary — does not
// trigger a freeze/unfreeze flap.
type Governor struct {
	// MinVCPUs and MaxVCPUs bound the decision (MinVCPUs >= 1).
	MinVCPUs, MaxVCPUs int

	// DownHysteresis is how many consecutive periods a lower reading must
	// persist before scaling down. Zero means scale down immediately.
	DownHysteresis int

	current    int
	downTarget int
	downCount  int
}

// NewGovernor returns a governor currently running cur vCPUs.
func NewGovernor(min, max, cur, downHysteresis int) *Governor {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if cur < min {
		cur = min
	}
	if cur > max {
		cur = max
	}
	return &Governor{
		MinVCPUs:       min,
		MaxVCPUs:       max,
		DownHysteresis: downHysteresis,
		current:        cur,
	}
}

// Current returns the governor's view of the active vCPU count.
func (g *Governor) Current() int { return g.current }

// Observe feeds one optimal-vCPU reading and returns the new target
// count (== Current after the call). The caller performs the actual
// freezes/unfreezes for the delta.
func (g *Governor) Observe(optimal int) int {
	if optimal < g.MinVCPUs {
		optimal = g.MinVCPUs
	}
	if optimal > g.MaxVCPUs {
		optimal = g.MaxVCPUs
	}
	switch {
	case optimal > g.current:
		g.current = optimal
		g.downCount, g.downTarget = 0, 0
	case optimal < g.current:
		// Any below-current reading extends the down streak; the streak
		// scales down conservatively, to the highest reading seen in it
		// (fluctuating 2/3 readings shrink to 3 first).
		g.downCount++
		if g.downTarget == 0 || optimal > g.downTarget {
			g.downTarget = optimal
		}
		if g.downCount > g.DownHysteresis {
			g.current = g.downTarget
			g.downCount, g.downTarget = 0, 0
		}
	default:
		g.downCount, g.downTarget = 0, 0
	}
	return g.current
}

// ForceCurrent resets the governor's view (used when an external actor —
// e.g. the dom0 baseline — changed the vCPU count).
func (g *Governor) ForceCurrent(cur int) {
	if cur < g.MinVCPUs {
		cur = g.MinVCPUs
	}
	if cur > g.MaxVCPUs {
		cur = g.MaxVCPUs
	}
	g.current = cur
	g.downCount, g.downTarget = 0, 0
}
