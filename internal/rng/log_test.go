package rng

import (
	"math"
	"runtime"
	"testing"
)

// logNormal gives the amd64 math.Log kernel's bits on the inputs the
// variates hand it: the 2^-53 grid of open() (the ziggurat tails and
// Gamma's rejection test) and ziggurat exponentials (Weibull), and on
// random positive normal doubles across the whole exponent range.
// Elsewhere math.Log is the pure-Go code the port came from, compiled
// with whatever multiply-adds the platform fuses, so it is no fixed
// reference.
func TestLogNormalMatchesMathLog(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Log on %s may fuse multiply-adds; the reference is the amd64 kernel", runtime.GOARCH)
	}
	n := 2_000_000
	if testing.Short() {
		n = 200_000
	}
	check := func(kind string, x float64) {
		if got, want := logNormal(x), math.Log(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: logNormal(%v) = %v (%#x), math.Log gives %v (%#x) on %s",
				kind, x, got, math.Float64bits(got), want, math.Float64bits(want), runtime.GOARCH)
		}
	}
	if got := math.Float64bits(math.Sqrt2/2) & (1<<52 - 1); got != 0x6a09e667f3bcd {
		t.Fatalf("fraction bits of √2/2 are %#x, logNormal assumes 0x6a09e667f3bcd", got)
	}
	for _, x := range []float64{0x1p-53, 0x1p-104, 0x1p-1022, math.MaxFloat64, 1, math.Nextafter(1, 0),
		math.Nextafter(1, 2), 2, 0.5, math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Sqrt2, math.E} {
		check("edge", x)
	}
	r := New(7)
	for i := 0; i < n; i++ {
		check("open grid", r.open())
		if e := r.expZig(); e > 0 {
			check("ziggurat exponential", e)
		}
		check("[0,2) uniform", 2*r.open())
		// A random positive normal double: any exponent, any mantissa.
		bits := r.Uint64()&(1<<52-1) | (1+r.Uint64()%2046)<<52
		check("positive normal", math.Float64frombits(bits))
	}
}
