package cluster

import "math"

// Gains of the pid policy: a proportional-dominant controller with a
// conservative integral, tuned so a demand step settles within two or
// three epochs with at most one epoch of overshoot.
const (
	// pidTargetRatio places the p95-latency setpoint as a fraction of
	// the SLO: the controller sizes each VM so its epoch p95 settles at
	// pidTargetRatio*SLO, leaving headroom before requests start
	// missing.
	pidTargetRatio float64 = 0.8
	// pidKp, pidKi and pidKd are the gains on the normalized latency
	// error e = (p95 - setpoint)/setpoint. The controller is
	// velocity-form: the correction is applied relative to the current
	// active count.
	pidKp float64 = 2.0
	pidKi float64 = 0.4
	pidKd float64 = 0.3
	// pidAddStep caps the additive increase per epoch (AIMD's AI term):
	// a latency spike grows the VM by at most pidAddStep vCPUs per
	// epoch.
	pidAddStep = 2
	// pidDecreaseFactor bounds the multiplicative decrease per epoch
	// (AIMD's MD term): a shrink keeps at least pidDecreaseFactor of the
	// current active count, so one quiet epoch cannot collapse the VM.
	pidDecreaseFactor float64 = 0.5
	// pidIntegralClamp bounds |integral| as a backstop against windup
	// beyond what conditional integration already prevents.
	pidIntegralClamp float64 = 3
)

// pidState is one VM's controller memory.
type pidState struct {
	integral float64
	prevErr  float64
	hasPrev  bool
}

// pidPolicy is a per-VM PID/AIMD feedback controller closing the loop
// on application latency rather than CPU demand: it targets an epoch
// p95 of pidTargetRatio*SLO using the load generator's windowed
// histogram, grows additively under latency pressure and shrinks
// multiplicatively when the VM runs cold, with conditional-integration
// anti-windup for targets unreachable at the VM's vCPU ceiling.
type pidPolicy struct {
	vms map[string]*pidState
}

// newPIDPolicy builds the pid controller.
func newPIDPolicy() ScalingPolicy {
	return &pidPolicy{vms: map[string]*pidState{}}
}

func (p *pidPolicy) Mechanism() Mechanism { return Mechanism{} }

// state returns (creating if needed) the VM's controller memory. The
// map is only ever indexed by the VM name Decide was handed — never
// iterated — so it cannot leak map-order nondeterminism.
func (p *pidPolicy) state(vm string) *pidState {
	st, ok := p.vms[vm]
	if !ok {
		st = &pidState{}
		p.vms[vm] = st
	}
	return st
}

// demandFloor is the vCPU count the VM's consumption this epoch
// already occupies — shrinking below it would throttle work that is
// demonstrably running.
func demandFloor(o VMObservation) int {
	if o.Epoch <= 0 {
		return 1
	}
	d := int(math.Ceil(float64(o.ConsumedCPU)/float64(o.Epoch) - 1e-9))
	if d < 1 {
		d = 1
	}
	return d
}

func (p *pidPolicy) Decide(o VMObservation) int {
	st := p.state(o.VM)
	setpoint := pidTargetRatio * o.SLO.Milliseconds()
	if setpoint <= 0 {
		return 0 // no objective to control against
	}

	var e float64
	switch {
	case o.Offered == 0 && o.InFlight == 0:
		// Idle epoch: nothing to control. Decay to the demand floor and
		// forget the controller state so a later burst starts clean.
		st.integral, st.prevErr, st.hasPrev = 0, 0, false
		floor := demandFloor(o)
		if floor >= o.ActiveVCPUs {
			return 0
		}
		return clampVCPUs(floor, o.MaxVCPUs)
	case o.Replies == 0:
		// Requests were offered (or are backlogged) but none came back:
		// the VM is wedged. No latency sample exists, so treat it as a
		// full-scale positive error.
		e = 1
	default:
		e = (o.P95 - setpoint) / setpoint
	}

	deriv := 0.0
	if st.hasPrev {
		deriv = e - st.prevErr
		// The plant is itself an integrator (the target is an absolute
		// vCPU count, not a rate), so integral turns accumulated during a
		// transient are pure windup once the error reaches or crosses
		// zero: without this reset a completed up-step keeps pushing the
		// VM one vCPU past its converged size for epochs afterwards.
		if e == 0 || e*st.prevErr < 0 {
			st.integral = 0
		}
	}
	st.prevErr, st.hasPrev = e, true

	raw := float64(o.ActiveVCPUs) + pidKp*e + pidKi*st.integral + pidKd*deriv
	target := int(math.Round(raw))

	// AIMD asymmetry: bound growth additively and shrink
	// multiplicatively, and never shrink below what the VM consumed.
	if target > o.ActiveVCPUs {
		if max := o.ActiveVCPUs + pidAddStep; target > max {
			target = max
		}
	} else if target < o.ActiveVCPUs {
		if floor := int(math.Ceil(float64(o.ActiveVCPUs) * pidDecreaseFactor)); target < floor {
			target = floor
		}
		if floor := demandFloor(o); target < floor {
			target = floor
		}
	}
	clamped := clampVCPUs(target, o.MaxVCPUs)

	// Anti-windup by conditional integration: freeze the integral when
	// the actuator is saturated and the error would push it further
	// outward (an unreachable target at the vCPU ceiling must not
	// accumulate turns the controller then has to unwind).
	saturatedHigh := clamped == o.MaxVCPUs && e > 0
	saturatedLow := clamped == 1 && e < 0
	if !saturatedHigh && !saturatedLow {
		st.integral += e
		if st.integral > pidIntegralClamp {
			st.integral = pidIntegralClamp
		}
		if st.integral < -pidIntegralClamp {
			st.integral = -pidIntegralClamp
		}
	}
	return clamped
}

// clampVCPUs bounds a target to [1, max].
func clampVCPUs(target, max int) int {
	if target < 1 {
		return 1
	}
	if target > max {
		return max
	}
	return target
}
