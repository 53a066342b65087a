// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used by every stochastic component in the repository.
//
// All experiments derive their randomness from a single seed through
// named streams, so every table and figure regenerates bit-identically.
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64; both are implemented here so the module stays stdlib-only
// and independent of math/rand's evolving default source.
package rng

import (
	"errors"
	"hash/fnv"
	"math"
)

// Rand is a deterministic xoshiro256** generator. It is NOT safe for
// concurrent use; derive one stream per goroutine with Split or Stream.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next splitmix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *Rand {
	r := &Rand{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Stream returns a generator whose seed combines seed and a stream name,
// so independent components of one experiment draw from independent
// sequences regardless of call order.
func Stream(seed uint64, name string) *Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(seed ^ h.Sum64())
}

// Split returns a new generator seeded from this one. The parent advances,
// so successive Splits yield independent children.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}

// SplitInto re-seeds dst in place with exactly the state Split would
// give a fresh child (the parent advances identically), so hot loops
// can derive per-step streams without allocating.
func (r *Rand) SplitInto(dst *Rand) {
	x := r.Uint64() ^ 0xd1342543de82ef95
	for i := range dst.s {
		dst.s[i] = splitmix64(&x)
	}
	if dst.s[0]|dst.s[1]|dst.s[2]|dst.s[3] == 0 {
		dst.s[0] = 0x9e3779b97f4a7c15
	}
}

// State exposes the generator's xoshiro256** state for checkpointing:
// a restored stream resumes exactly where the snapshot left off, which
// is what keeps resumed runs byte-identical to uninterrupted ones.
func (r *Rand) State() [4]uint64 { return r.s }

// FromState reconstructs a generator from a State snapshot. The
// all-zero state is rejected — xoshiro can never reach it, so it only
// appears in corrupt or hand-forged snapshots.
func FromState(s [4]uint64) (*Rand, error) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return nil, errors.New("rng: invalid all-zero state")
	}
	return &Rand{s: s}, nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// simple rejection keeps the distribution exact.
	max := uint64(n)
	limit := math.MaxUint64 - math.MaxUint64%max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Range returns a uniform value in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, via the Marsaglia polar method.
func (r *Rand) Norm(mean, std float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + std*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(Norm(mu, sigma)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Jitter returns x multiplied by a lognormal factor with multiplicative
// standard deviation roughly rel (e.g. 0.02 for ~2% measurement noise).
func (r *Rand) Jitter(x, rel float64) float64 {
	if rel <= 0 {
		return x
	}
	return x * r.LogNormal(0, rel)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }
