// The exponential below is ported from the pure-Go exp in Go's math
// package (src/math/exp.go), which carries this notice:
//
//	Copyright 2009 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style
//	license that can be found in the LICENSE file.
//
// That code in turn derives from FreeBSD's /usr/src/lib/msun/src/e_exp.c,
// which came with this notice:
//
//	Copyright (C) 2004 by Sun Microsystems, Inc. All rights reserved.
//
//	Permission to use, copy, modify, and distribute this
//	software is freely granted, provided that this notice
//	is preserved.

package rng

import "math"

// exp returns e^x with the special cases of math.Exp. Unlike math.Exp,
// whose amd64 assembly takes another path on CPUs with FMA and whose
// pure-Go form may be compiled into fused multiply-adds elsewhere, it
// rounds every product on its own (float64(…)), so it gives the same
// bits on every host. It is within one float of the correctly rounded
// e^x (TestExpWithinOneULP).
//
// Method (from e_exp.c): write x = k·ln2 + r with |r| ≤ ln2/2, r held as
// hi − lo for extra precision; exp(r) = 1 + r + r·c/(2 − c), where
// c = r − r²·P(r²) and a degree-5 polynomial P is within 2^-59; then
// e^x = 2^k·exp(r).
func exp(x float64) float64 {
	const (
		Ln2Hi = 6.93147180369123816490e-01
		Ln2Lo = 1.90821492927058770002e-10
		Log2e = 1.44269504088896338700e+00

		Overflow  = 7.09782712893383973096e+02
		Underflow = -7.45133219101941108420e+02
		NearZero  = 1.0 / (1 << 28) // 2**-28

		P1 = 1.66666666666666657415e-01  /* 0x3FC55555; 0x55555555 */
		P2 = -2.77777777770155933842e-03 /* 0xBF66C16C; 0x16BEBD93 */
		P3 = 6.61375632143793436117e-05  /* 0x3F11566A; 0xAF25DE2C */
		P4 = -1.65339022054652515390e-06 /* 0xBEBBBD41; 0xC5D26BF1 */
		P5 = 4.13813679705723846039e-08  /* 0x3E663769; 0x72BEA4D0 */
	)

	// special cases
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > Overflow:
		return math.Inf(1)
	case x < Underflow:
		return 0
	case -NearZero < x && x < NearZero:
		return 1 + x
	}

	// reduce; computed as r = hi - lo for extra precision.
	var k int
	switch {
	case x < 0:
		k = int(float64(Log2e*x) - 0.5)
	case x > 0:
		k = int(float64(Log2e*x) + 0.5)
	}
	hi := x - float64(float64(k)*Ln2Hi)
	lo := float64(float64(k) * Ln2Lo)

	// compute
	r := hi - lo
	t := float64(r * r)
	c := r - float64(t*(P1+float64(t*(P2+float64(t*(P3+float64(t*(P4+float64(t*P5)))))))))
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)

	// scale: y = exp(r) lies between 0.7 and 1.5, so for
	// -1021 <= k <= 1023 the product y·2^k is a normal float, and
	// multiplying by 2^k built from its exponent bits is exact. Only the
	// subnormal end, and k = 1024 where 2^k overflows, need math.Ldexp's
	// general scaling.
	if -1021 <= k && k <= 1023 {
		return float64(y * math.Float64frombits(uint64(k+1023)<<52))
	}
	return math.Ldexp(y, k)
}

// log returns the natural logarithm of x with the special cases of
// math.Log. A positive normal x goes to logNormal unchanged; a subnormal
// one is first scaled by 2^54, exactly, into the normal range, and 54·ln2
// taken back off. It serves the few logarithms taken once per
// distribution rather than per draw (LognormalParams) and those whose
// argument is not a uniform on open()'s grid (Gamma's rejection test).
func log(x float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case x < 0x1p-1022:
		return logScaled(x*0x1p54, -54)
	}
	return logNormal(x)
}
