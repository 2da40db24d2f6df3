package sim

import "math"

// Rand is a small, fast, deterministic PRNG (xoshiro256** with a
// splitmix64 seeder). The standard library's math/rand is avoided so the
// stream is stable across Go releases, which keeps recorded experiment
// outputs reproducible bit-for-bit.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from seed via splitmix64.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state, which xoshiro cannot escape.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Fork derives an independent generator; streams from the parent and the
// child do not overlap in practice. Used to give each simulated entity
// its own stream so adding entities does not perturb others.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *Rand) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// ExpFloat64 returns an exponential variate with mean 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u)
	}
}

// ExpDuration returns an exponential virtual duration with the given
// mean — the inter-arrival law of a Poisson process, used by open-loop
// load generators. The result is floored at 1 (never zero) so two
// arrivals cannot collapse onto the same instant with identical
// ordering ambiguity, and saturates at MaxTime ("never") instead of
// overflowing when the mean is astronomically long.
func (r *Rand) ExpDuration(mean Time) Time {
	if mean <= 0 {
		panic("sim: ExpDuration with non-positive mean")
	}
	f := float64(mean) * r.ExpFloat64()
	if f >= float64(MaxTime) {
		return MaxTime
	}
	d := Time(f)
	if d < 1 {
		d = 1
	}
	return d
}

// Duration returns a uniform virtual duration in [lo, hi].
func (r *Rand) Duration(lo, hi Time) Time {
	if hi < lo {
		panic("sim: Duration with hi < lo")
	}
	if hi == lo {
		return lo
	}
	return lo + Time(r.Uint64()%uint64(hi-lo+1))
}

// LogNormal returns a log-normal variate with the given location and
// scale parameters of the underlying normal.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}
