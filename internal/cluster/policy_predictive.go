package cluster

import "math"

// Smoothing of the predictive policy.
const (
	// predAlpha and predBeta are Holt's double-exponential smoothing
	// factors for the demand level and its linear trend.
	predAlpha float64 = 0.5
	predBeta  float64 = 0.3
	// predHeadroom multiplies the one-epoch-ahead demand forecast before
	// the ceiling, so the provisioned count leads demand instead of
	// chasing it.
	predHeadroom float64 = 1.25
	// predPressureAttainment is the windowed-attainment threshold below
	// which one extra vCPU is added on top of the forecast: consumption
	// under-reports demand exactly when the VM is being throttled, and
	// the attainment slip is the tell.
	predPressureAttainment float64 = 0.9
)

// holtState is one VM's demand-forecast memory (Holt's linear
// exponential smoothing: a level plus a trend).
type holtState struct {
	level, trend float64
	init         bool
}

// predictivePolicy forecasts each VM's CPU demand one epoch ahead from
// its recent consumption history — an EWMA level plus a linear trend
// (Holt's method) — and provisions the forecast with multiplicative
// headroom. Where the pid policy reacts to latency already gone bad,
// the predictive policy moves before it does: a VM ramping across
// epochs gets its next vCPU while the trend is still climbing.
type predictivePolicy struct {
	vms map[string]*holtState
}

// newPredictivePolicy builds the predictive policy.
func newPredictivePolicy() ScalingPolicy {
	return &predictivePolicy{vms: map[string]*holtState{}}
}

func (p *predictivePolicy) Mechanism() Mechanism { return Mechanism{} }

func (p *predictivePolicy) state(vm string) *holtState {
	st, ok := p.vms[vm]
	if !ok {
		st = &holtState{}
		p.vms[vm] = st
	}
	return st
}

func (p *predictivePolicy) Decide(o VMObservation) int {
	if o.Epoch <= 0 {
		return 0
	}
	// Demand in vCPUs: the share of the epoch the VM actually consumed.
	demand := float64(o.ConsumedCPU) / float64(o.Epoch)

	st := p.state(o.VM)
	if !st.init {
		st.level, st.trend, st.init = demand, 0, true
	} else {
		prev := st.level
		st.level = predAlpha*demand + (1-predAlpha)*(st.level+st.trend)
		st.trend = predBeta*(st.level-prev) + (1-predBeta)*st.trend
	}

	forecast := st.level + st.trend
	if forecast < 0 {
		forecast = 0
	}
	target := int(math.Ceil(forecast*predHeadroom - 1e-9))

	// Consumption is a throughput signal, not an intent signal: when
	// the VM is squeezed it consumes less while wanting more. A slipped
	// epoch attainment (or a growing backlog with nothing delivered)
	// overrides the forecast with one step up.
	if o.Offered > 0 && (o.Attainment < predPressureAttainment || (o.Replies == 0 && o.InFlight > 0)) {
		if t := o.ActiveVCPUs + 1; t > target {
			target = t
		}
	}
	return clampVCPUs(target, o.MaxVCPUs)
}
