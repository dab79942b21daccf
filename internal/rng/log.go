// The logarithm below is ported from the pure-Go log in Go's math package
// (src/math/log.go), which carries this notice:
//
//	Copyright 2009 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style
//	license that can be found in the LICENSE file.
//
// That code in turn derives from FreeBSD's /usr/src/lib/msun/src/e_log.c,
// which came with this notice:
//
//	Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
//	Developed at SunPro, a Sun Microsystems, Inc. business.
//	Permission to use, copy, modify, and distribute this
//	software is freely granted, provided that this notice
//	is preserved.

package rng

import "math"

// logNormal returns the natural logarithm of x, which must be a positive
// normal float64: no zero, subnormal, infinity, NaN or negative argument
// reaches it (TestLogArgumentsAreNeverSubnormal). On those inputs it
// gives the bits of math.Log's amd64 assembly kernel
// (TestLogNormalMatchesMathLog), and it gives them on every platform:
// it rounds every product, where the pure-Go math.log that other
// platforms run may be compiled into fused multiply-adds. The variates
// drawn through it are therefore owned by this package rather than by
// the toolchain's choice of log kernel.
//
// Method (from e_log.c): write x = 2^k·(1+f) with √2/2 < 1+f < √2; with
// s = f/(2+f), log(1+f) = 2s + s·R(s²), where a degree-14 polynomial
// approximates R within 2^-58.45; then log(x) = k·ln2 + log(1+f), with
// ln2 split into a high part exact under small multiples and a low part.
func logNormal(x float64) float64 { return logScaled(x, 0) }

// logScaled returns log(x·2^dk) for a positive normal x: the exponent
// adjustment joins k before k·ln2 is formed, so log can take a
// subnormal argument pre-scaled into the normal range at no extra
// rounding.
func logScaled(x float64, dk int) float64 {
	const (
		Ln2Hi = 6.93147180369123816490e-01 /* 3fe62e42 fee00000 */
		Ln2Lo = 1.90821492927058770002e-10 /* 3dea39ef 35793c76 */
		L1    = 6.666666666666735130e-01   /* 3FE55555 55555593 */
		L2    = 3.999999999940941908e-01   /* 3FD99999 9997FA04 */
		L3    = 2.857142874366239149e-01   /* 3FD24924 94229359 */
		L4    = 2.222219843214978396e-01   /* 3FCC71C5 1D8E78AF */
		L5    = 1.818357216161805012e-01   /* 3FC74664 96CB03DE */
		L6    = 1.531383769920937332e-01   /* 3FC39A09 D078C69F */
		L7    = 1.479819860511658591e-01   /* 3FC2F112 DF3E5244 */

		fracMask = 1<<52 - 1
		hSqrt2   = 0x6a09e667f3bcd // fraction bits of √2/2 (TestLogNormalMatchesMathLog)
	)

	// reduce: x = f1·2^ki with √2/2 <= f1 < √2. math.Frexp's f1 in
	// [0.5, 1) has x's fraction bits, so f1 < √2/2 exactly when they are
	// below √2/2's; that case doubles f1 (exponent 1023 for 1022) and
	// decrements ki, without a branch, as the amd64 kernel does.
	bits := math.Float64bits(x)
	frac := bits & fracMask
	lt := (frac - hSqrt2) >> 63 // 1 when frac < hSqrt2
	f1 := math.Float64frombits(frac | (1022+lt)<<52)
	k := float64(int(bits>>52) - 1022 - int(lt) + dk)
	f := f1 - 1

	// compute; every product is rounded on its own (float64(…)), so no
	// compiler fuses it into a multiply-add and the bits match the amd64
	// kernel, which uses separate multiplies and adds, on every platform.
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (L1 + float64(s4*(L3+float64(s4*(L5+float64(s4*L7)))))))
	t2 := float64(s4 * (L2 + float64(s4*(L4+float64(s4*L6)))))
	R := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*Ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*Ln2Lo))) - f)
}
