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

// streamFrom returns a stream whose next two Uint64 outputs are x1 and
// x2. xoshiro256** outputs rotl(s[1]*5, 7)*9 and then moves s[1] to
// s[1]^s[2]^s[0], so both outputs follow from s[1] and s[2] alone.
func streamFrom(x1, x2 uint64) *Stream {
	pre := func(x uint64) uint64 { return rotl(x*inverse(9), 64-7) * inverse(5) }
	s1, next := pre(x1), pre(x2)
	return &Stream{s: [4]uint64{0, s1, s1 ^ next, 1}}
}

// grid returns the raw output whose Float64 is k·2^-53.
func grid(k uint64) uint64 { return k << 11 }

func TestStreamFromOutputs(t *testing.T) {
	r := streamFrom(0xdeadbeef, 12345)
	if a, b := r.Uint64(), r.Uint64(); a != 0xdeadbeef || b != 12345 {
		t.Fatalf("crafted stream gave %#x, %d", a, b)
	}
}

// No argument Exp or Normal hands to math.Log is subnormal, so the pure-Go
// log, which disagrees with the amd64 assembly only on subnormal inputs,
// could replace it without changing any variate drawn through them.
//
//   - open() draws from the 2^-53 grid of Float64 and rejects 0, so its
//     least value is 2^-53 (the argument of Exp's and Weibull's log).
//   - The polar method's u and v are multiples of 2^-52, so s = u²+v² is 0
//     (rejected) or at least 2^-104.
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
	if got, want := streamFrom(grid(1), 0).Exp(1), -math.Log(0x1p-53); got != want {
		t.Errorf("Exp(1) at the least grid point gave %g, want -log(2^-53) = %g", got, want)
	}

	// The polar method's least nonzero s: u = 2^-52, v = 0.
	u, v := 0x1p-52, 0.0
	s := u*u + v*v
	want := u * math.Sqrt(-2*math.Log(s)/s)
	if got := streamFrom(grid(1<<52+1), grid(1<<52)).Normal(0, 1); got != want {
		t.Errorf("Normal at u = 2^-52, v = 0 gave %g, want %g (s = 2^-104)", got, want)
	}
	// u = v = 0 gives s = 0, whose log would make the variate NaN: the
	// method must reject the pair and draw again.
	if got := streamFrom(grid(1<<52), grid(1<<52)).Normal(0, 1); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("Normal at u = v = 0 gave %g; s = 0 must be rejected", got)
	}

	// Every s near the bottom of the grid, and at its largest |u| and |v|:
	// u = 2·Float64 − 1 is exactly a·2^-52 for an integer a.
	polarS := func(ka, kb uint64) float64 {
		u := 2*streamFrom(grid(ka), 0).Float64() - 1
		v := 2*streamFrom(grid(kb), 0).Float64() - 1
		return u*u + v*v
	}
	ks := []uint64{0, 1, 2, 3}
	for a := uint64(1<<52 - 8); a <= 1<<52+8; a++ {
		ks = append(ks, a)
	}
	ks = append(ks, 1<<53-2, 1<<53-1)
	for _, ka := range ks {
		for _, kb := range ks {
			if s := polarS(ka, kb); s != 0 && s < 0x1p-104 {
				t.Fatalf("grid points %d, %d give s = %g below 2^-104", ka, kb, s)
			}
		}
	}

	// And on ordinary draws.
	r := New(7)
	for i := 0; i < 1e6; i++ {
		if x := r.open(); x < 0x1p-53 {
			t.Fatalf("open gave %g", x)
		}
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		if s := u*u + v*v; s != 0 && s < 0x1p-104 {
			t.Fatalf("polar s = %g below 2^-104", s)
		}
	}
}
