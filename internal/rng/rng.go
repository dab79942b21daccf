// Package rng provides deterministic pseudo-random number streams and the
// random-variate generators needed by the ROCC simulation model: uniform,
// exponential, normal, lognormal (parameterized by mean and standard
// deviation, the form used in Table 2 of the paper), Weibull, and
// empirical distributions.
//
// Every stream is seeded explicitly so simulation experiments are exactly
// reproducible, and independent substreams (one per stochastic process in the
// model, following common-random-numbers practice from Law & Kelton) are
// derived with a SplitMix64 seed sequence so that changing the number of
// processes in one part of a model does not perturb the draws seen elsewhere.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used both to seed xoshiro streams and to derive substream seeds.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic pseudo-random stream (xoshiro256**) with
// variate-generation methods. The zero value is not valid; use New or Derive,
// or Seed or DeriveInto to set up a stream in place.
type Stream struct {
	s [4]uint64
}

// New returns a stream seeded from seed. Distinct seeds give streams that
// are, for simulation purposes, independent.
func New(seed uint64) *Stream {
	st := &Stream{}
	st.Seed(seed)
	return st
}

// Seed overwrites st with the stream New(seed) returns, so a caller can
// keep its streams in storage it owns.
func (st *Stream) Seed(seed uint64) {
	*st = Stream{}
	sm := seed
	for i := range st.s {
		st.s[i] = splitMix64(&sm)
	}
	// xoshiro must not be seeded with the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
}

// Derive returns a substream keyed by id. Substreams with distinct ids are
// independent of each other and of the parent; deriving does not advance the
// parent stream.
func (r *Stream) Derive(id uint64) *Stream {
	st := &Stream{}
	r.DeriveInto(st, id)
	return st
}

// DeriveInto overwrites st with the substream Derive(id) returns, so a
// caller can keep its streams in storage it owns. st may be r itself.
func (r *Stream) DeriveInto(st *Stream, id uint64) {
	sm := r.s[0] ^ (r.s[2] * 0x9e3779b97f4a7c15)
	mix := splitMix64(&sm) ^ (id * 0xd1342543de82ef95)
	st.Seed(mix)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
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

// Float64 returns a uniform variate in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// open returns a uniform variate in (0, 1), never exactly zero, suitable for
// the logarithms of the ziggurat tails and the gamma rejection test.
func (r *Stream) open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Uniform returns a variate uniform on [a, b).
func (r *Stream) Uniform(a, b float64) float64 {
	return a + float64((b-a)*r.Float64())
}

// Exp returns an exponential variate with the given mean (inter-arrival form
// used throughout Table 2), drawn by the ziggurat method. It panics if
// mean <= 0.
func (r *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	return float64(mean * r.expZig())
}

// Normal returns a normal variate with mean mu and standard deviation sigma,
// drawn by the ziggurat method.
func (r *Stream) Normal(mu, sigma float64) float64 {
	return mu + float64(sigma*r.normZig())
}

// LognormalParams converts a desired mean and standard deviation of a
// lognormal random variable into the (mu, sigma) parameters of the
// underlying normal distribution.
func LognormalParams(mean, sd float64) (mu, sigma float64) {
	if mean <= 0 {
		panic("rng: lognormal mean must be positive")
	}
	if sd < 0 {
		panic("rng: lognormal sd must be non-negative")
	}
	cv2 := float64((sd / mean) * (sd / mean))
	sigma2 := log(1 + cv2)
	mu = log(mean) - float64(sigma2/2)
	return mu, math.Sqrt(sigma2)
}

// Lognormal returns a lognormal variate specified by the mean and standard
// deviation of the variate itself (not of its logarithm). This matches the
// "lognormal(a, b)" parameterization of Table 2 in the paper.
func (r *Stream) Lognormal(mean, sd float64) float64 {
	mu, sigma := LognormalParams(mean, sd)
	return r.lognormal(mu, sigma)
}

// lognormal draws exp(N(mu, sigma)). It is the one variate routine behind
// both Stream.Lognormal and a Prepare'd Lognormal, so the two give
// bit-identical draws.
func (r *Stream) lognormal(mu, sigma float64) float64 {
	return exp(r.Normal(mu, sigma))
}

// Weibull returns a Weibull variate with the given shape and scale as
// scale·E^(1/shape) for a standard exponential E.
func (r *Stream) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull parameters must be positive")
	}
	e := r.expZig()
	if e == 0 {
		return 0
	}
	return float64(scale * exp(logNormal(e)/shape))
}

// Bernoulli returns true with probability p.
func (r *Stream) Bernoulli(p float64) bool {
	return r.Float64() < p
}
