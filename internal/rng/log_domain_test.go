package rng

import (
	"math"
	"testing"
)

// inverse returns the multiplicative inverse of an odd x modulo 2^64.
func inverse(x uint64) uint64 {
	inv := x // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		inv *= 2 - x*inv
	}
	return inv
}

// streamFrom returns a stream whose next Uint64 outputs are xs (one to
// three of them). xoshiro256** outputs rotl(s[1]*5, 7)*9. With s[0] = 0
// its first step moves s[1] to s[1]^s[2], and its second to
// (s[1]<<17)^s[3] of the starting state; so s[1], s[2] and s[3] fix the
// three outputs in turn.
func streamFrom(xs ...uint64) *Stream {
	pre := func(x uint64) uint64 { return rotl(x*inverse(9), 64-7) * inverse(5) }
	var s1 [3]uint64
	for i := range s1 {
		if i < len(xs) {
			s1[i] = pre(xs[i])
		}
	}
	s2 := s1[0] ^ s1[1]
	s3 := uint64(1)
	if len(xs) > 2 {
		s3 = s1[2] ^ s1[0]<<17
	}
	return &Stream{s: [4]uint64{0, s1[0], s2, s3}}
}

// grid returns the raw output whose Float64 is k·2^-53.
func grid(k uint64) uint64 { return k << 11 }

func TestStreamFromOutputs(t *testing.T) {
	r := streamFrom(0xdeadbeef, 12345)
	if a, b := r.Uint64(), r.Uint64(); a != 0xdeadbeef || b != 12345 {
		t.Fatalf("crafted stream gave %#x, %d", a, b)
	}
	r = streamFrom(7, 0xfeedface, 1<<63|5)
	if a, b, c := r.Uint64(), r.Uint64(), r.Uint64(); a != 7 || b != 0xfeedface || c != 1<<63|5 {
		t.Fatalf("crafted stream gave %#x, %#x, %#x", a, b, c)
	}
}

// No argument a variate hands to logNormal is zero or subnormal, which
// logNormal does not take (log, which does, pre-scales them):
//
//   - open() draws from the 2^-53 grid of Float64 and rejects 0, so its
//     least value is 2^-53. It is the argument of both ziggurat tails
//     (the exponential's past re, the normal's past ±rn) and of Gamma's
//     rejection test.
//   - Weibull takes the logarithm of a ziggurat exponential E, returning
//     0 at once for E = 0. A nonzero E is at least the narrowest strip
//     width, min we[i] = we[1] ≈ 1.5e-11, when it comes from a strip, and above
//     re when it comes from the tail.
//
// Both bounds are far above the subnormal range, which ends at 2^-1022.
func TestLogArgumentsAreNeverSubnormal(t *testing.T) {
	// open's least value, and its rejection of 0.
	if got := streamFrom(grid(1), 0).open(); got != 0x1p-53 {
		t.Errorf("open on the least grid point gave %g, want 2^-53", got)
	}
	if got := streamFrom(grid(0)|0x7ff, grid(5)).open(); got != 5*0x1p-53 {
		t.Errorf("open did not reject 0: gave %g, want 5·2^-53", got)
	}

	// The exponential tail (strip 0, j past ke[0]) at open's least value,
	// and past a zero it must reject.
	tail := uint64(0xffffffff) // i = 0, j = 2^32-1
	if got, want := streamFrom(tail, grid(1)).Exp(1), re-logNormal(0x1p-53); got != want {
		t.Errorf("Exp(1) tail at the least grid point gave %g, want re - log(2^-53) = %g", got, want)
	}
	if got, want := streamFrom(tail, grid(0), grid(1)).Exp(1), re-logNormal(0x1p-53); got != want {
		t.Errorf("Exp(1) tail did not reject a zero uniform: gave %g, want %g", got, want)
	}

	// The normal tail (strip 0, |j| past kn[0]): x = -log(u1)/rn and
	// y = -log(u2), accepted when 2y >= x². u1 = 2^-53 makes x ≈ 10.7,
	// which u2 = 2^-53 (y ≈ 36.7, 2y ≈ 73.5 < x² ≈ 114) rejects; with u1
	// one half, x ≈ 0.2 and the same y accepts.
	for _, c := range []struct {
		j    uint64
		sign float64
	}{{0x7fffffff, 1}, {0x80000001, -1}} {
		half := grid(1 << 52)
		x := -logNormal(0.5) * (1 / rn)
		want := c.sign * (rn + x)
		if got := streamFrom(c.j, half, grid(1)).Normal(0, 1); got != want {
			t.Errorf("normal tail j=%#x gave %g, want %g", c.j, got, want)
		}
	}
	xr := -logNormal(0x1p-53) * (1 / rn)
	yr := -logNormal(0x1p-53)
	if yr+yr >= xr*xr {
		t.Fatalf("u1 = u2 = 2^-53 should be rejected: 2y = %g, x² = %g", yr+yr, xr*xr)
	}

	// Weibull's logarithm never sees a zero or subnormal E.
	least := math.Inf(1)
	for i := range we {
		least = math.Min(least, float64(we[i]))
	}
	if least < 0x1p-40 || re < 1 {
		t.Fatalf("least strip width %g, tail edge %g", least, re)
	}
	if got := streamFrom(uint64(5)<<32).Weibull(0.5, 3); got != 0 { // i = 5, j = 0: E = 0
		t.Errorf("Weibull at E = 0 gave %g, want 0", got)
	}

	// And on ordinary draws.
	r := New(7)
	for i := 0; i < 1e6; i++ {
		if x := r.open(); x < 0x1p-53 {
			t.Fatalf("open gave %g", x)
		}
		if e := r.expZig(); e != 0 && e < least {
			t.Fatalf("expZig gave %g below the least strip width", e)
		}
	}
}
