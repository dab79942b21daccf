package rng

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rocc/internal/stats"
)

// Each variate follows its law: the Kolmogorov-Smirnov distance between
// 20,000 draws and the true CDF stays under the α = 0.01 critical value,
// on every one of several fixed seeds.
func TestVariatesPassKolmogorovSmirnov(t *testing.T) {
	const n = 20000
	crit, err := stats.KSCriticalValue(n, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	phi := func(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }
	lnMu, lnSigma := LognormalParams(2213, 3034) // Table 2 application CPU
	laws := []struct {
		name string
		draw func(r *Stream) float64
		cdf  func(x float64) float64
	}{
		{"exponential(267)", func(r *Stream) float64 { return r.Exp(267) },
			func(x float64) float64 { return 1 - math.Exp(-x/267) }},
		{"normal(10, 3)", func(r *Stream) float64 { return r.Normal(10, 3) },
			func(x float64) float64 { return phi((x - 10) / 3) }},
		{"lognormal(2213, 3034)", func(r *Stream) float64 { return r.Lognormal(2213, 3034) },
			func(x float64) float64 {
				if x <= 0 {
					return 0
				}
				return phi((math.Log(x) - lnMu) / lnSigma)
			}},
		{"weibull(0.7, 100)", func(r *Stream) float64 { return r.Weibull(0.7, 100) },
			func(x float64) float64 { return 1 - math.Exp(-math.Pow(math.Max(x, 0)/100, 0.7)) }},
		{"weibull(2, 100)", func(r *Stream) float64 { return r.Weibull(2, 100) },
			func(x float64) float64 { return 1 - math.Exp(-math.Pow(math.Max(x, 0)/100, 2)) }},
		{"gamma(0.6, 30)", func(r *Stream) float64 { return r.Gamma(0.6, 30) },
			stats.GammaFit{Shape: 0.6, Scale: 30}.CDF},
		{"gamma(3, 10)", func(r *Stream) float64 { return r.Gamma(3, 10) },
			stats.GammaFit{Shape: 3, Scale: 10}.CDF},
	}
	xs := make([]float64, n)
	for _, law := range laws {
		for _, seed := range []uint64{1, 2, 3, 5, 8} {
			r := New(seed)
			for i := range xs {
				xs[i] = law.draw(r)
			}
			if d := stats.KSStatistic(xs, law.cdf); d >= crit {
				t.Errorf("%s, seed %d: K-S D = %.4f, critical value %.4f at α = 0.01", law.name, seed, d, crit)
			}
		}
	}
}

// Every branch of both ziggurats, driven by crafted stream outputs: a
// draw in a strip's rectangle returns at once, a draw in strip 0 goes to
// the tail, and a wedge draw is accepted under the density and rejected
// above it, when the next draw decides.
func TestZigguratBranches(t *testing.T) {
	top := grid(1<<53 - 1) // Float64 just below 1: the top of a wedge

	// Exponential. A draw is j | i<<32 for strip i and position j.
	rect := uint64(5)<<32 | 1000
	rectX := float64(1000) * float64(we[5])
	if 1000 >= ke[5] {
		t.Fatal("j = 1000 is not in strip 5's rectangle")
	}
	if got := streamFrom(rect).expZig(); got != rectX {
		t.Errorf("exponential rectangle gave %g, want %g", got, rectX)
	}
	if got, want := streamFrom(0xffffffff, grid(1<<52)).expZig(), re-logNormal(0.5); got != want {
		t.Errorf("exponential base strip gave %g, want re + ln 2 = %g", got, want)
	}
	const ie = 200
	je := uint32((uint64(ke[ie]) + 1<<32) / 2) // midway along the wedge
	wedge := uint64(ie)<<32 | uint64(je)
	wedgeX := float64(je) * float64(we[ie])
	if h := float32(math.Exp(-wedgeX)); !(fe[ie] < h && h < fe[ie-1]) {
		t.Fatalf("exponential draw %#x is not in strip %d's wedge: e^-x = %g, heights %g..%g", wedge, ie, h, fe[ie], fe[ie-1])
	}
	if got := streamFrom(wedge, grid(0)).expZig(); got != wedgeX {
		t.Errorf("exponential wedge under the density gave %g, want %g", got, wedgeX)
	}
	if got := streamFrom(wedge, top, rect).expZig(); got != rectX {
		t.Errorf("exponential wedge above the density gave %g, want the next draw's %g", got, rectX)
	}

	// Normal. A draw is int32 j | i<<32 for strip i (mod 128).
	nrect := uint64(5)<<32 | (1<<32 - 1000) // j = -1000
	nrectX := float64(-1000) * float64(wn[5])
	if got := streamFrom(nrect).normZig(); got != nrectX {
		t.Errorf("normal rectangle gave %g, want %g", got, nrectX)
	}
	for _, j := range []uint64{0x7fffffff, 0x80000001} {
		want := rn + -logNormal(0.5)*(1/rn)
		if j > 0x7fffffff {
			want = -want
		}
		if got := streamFrom(j, grid(1<<52), grid(1)).normZig(); got != want {
			t.Errorf("normal base strip, j = %#x, gave %g, want %g", j, got, want)
		}
	}
	const in = 100
	jn := (kn[in] + 1<<31) / 2
	nwedge := uint64(in)<<32 | uint64(jn)
	nwedgeX := float64(jn) * float64(wn[in])
	if h := float32(math.Exp(-nwedgeX * nwedgeX / 2)); !(fn[in] < h && h < fn[in-1]) {
		t.Fatalf("normal draw %#x is not in strip %d's wedge: density %g, heights %g..%g", nwedge, in, h, fn[in], fn[in-1])
	}
	if got := streamFrom(nwedge, grid(0)).normZig(); got != nwedgeX {
		t.Errorf("normal wedge under the density gave %g, want %g", got, nwedgeX)
	}
	if got := streamFrom(nwedge, top, nrect).normZig(); got != nrectX {
		t.Errorf("normal wedge above the density gave %g, want the next draw's %g", got, nrectX)
	}
}

// ulps returns how many float64 values lie between two finite floats of
// the same sign.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// expRef returns e^x rounded to the nearest float64, from a 160-bit
// evaluation: x = k·ln2 + r, exp(r) summed as a Taylor series in r/2^8
// and squared back eight times, then scaled by 2^k.
func expRef(x float64) float64 {
	const prec = 160
	ln2, _, _ := big.ParseFloat("0.69314718055994530941723212145817656807550013436025525412068000949339362196969471560586332699641868754200148102057068573368552023575813055703267075163507596193072757082837143519030703862389167347112335", 10, prec, big.ToNearestEven)
	k := math.Round(x / math.Ln2)
	r := new(big.Float).SetPrec(prec).SetFloat64(k)
	r.Mul(r, ln2)
	r.Sub(new(big.Float).SetPrec(prec).SetFloat64(x), r)
	r.SetMantExp(r, -8)
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for n := int64(1); n <= 24; n++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetInt64(n))
		sum.Add(sum, term)
	}
	for i := 0; i < 8; i++ {
		sum.Mul(sum, sum)
	}
	sum.SetMantExp(sum, int(k))
	f, _ := sum.Float64()
	return f
}

// The owned exp is at most one float from the correctly rounded e^x
// across the lognormal variates' arguments and across the two ends
// where it scales by math.Ldexp: a subnormal result (k < -1021) and
// k = 1024 below overflow. Over the lognormal range it is also within 2
// ulps of math.Exp, whose amd64 kernel is itself more than an ulp off on
// some of these inputs (e^8.64294387695278: 1.38 ulps on a CPU with FMA),
// so 1 ulp from math.Exp is no bound either could meet. The Ldexp ends
// are not compared with math.Exp: its amd64 kernel overflows early
// (e^709.634 gives +Inf, not 1.549e308). Its special cases are
// math.Exp's.
func TestExpWithinOneULP(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	check := func(kind string, x float64) {
		t.Helper()
		got := exp(x)
		if want := expRef(x); ulps(got, want) > 1 {
			t.Fatalf("%s: exp(%v) = %v, e^x rounds to %v: %d ulps apart", kind, x, got, want, ulps(got, want))
		}
		if want := math.Exp(x); math.Abs(x) <= 50 && ulps(got, want) > 2 {
			t.Fatalf("%s: exp(%v) = %v, math.Exp gives %v: %d ulps apart", kind, x, got, want, ulps(got, want))
		}
	}
	r := New(3)
	for _, p := range [][2]float64{{2213, 3034}, {294, 206}, {10, 400}, {1, 1}} {
		mu, sigma := LognormalParams(p[0], p[1])
		for i := 0; i < n/4; i++ {
			check("lognormal argument", r.Normal(mu, sigma))
		}
	}
	for i := 0; i < n; i++ {
		check("[-50, 50)", r.Uniform(-50, 50))
	}
	const (
		under = -7.45133219101941108420e+02
		over  = 7.09782712893383973096e+02
	)
	for i := 0; i < n/10; i++ {
		check("subnormal end", r.Uniform(under, -707.5))
		check("top end", r.Uniform(709.44, over))
	}
	for _, x := range []float64{under, over, -707.7, -707.8, 709.43, 709.44, 0, 0x1p-29, -0x1p-29, 1, -1, 8.64294387695278} {
		check("edge", x)
	}
	for _, c := range [][2]float64{
		{math.Inf(1), math.Inf(1)}, {math.Inf(-1), 0}, {over * 1.0001, math.Inf(1)}, {under * 1.0001, 0},
	} {
		if got := exp(c[0]); got != c[1] {
			t.Errorf("exp(%v) = %v, want %v", c[0], got, c[1])
		}
	}
	if !math.IsNaN(exp(math.NaN())) {
		t.Error("exp(NaN) is not NaN")
	}
}

// log takes what logNormal does not: subnormal arguments, pre-scaled into
// the normal range, and math.Log's special cases. The reference for a
// subnormal x is log(x·2^54) − 54·ln2, because math.Log's amd64 kernel
// gets subnormals wrong (it gives −709.09 for 2^-1074, not −744.44).
func TestLogTakesSubnormals(t *testing.T) {
	for _, x := range []float64{0x1p-1074, 3 * 0x1p-1074, 0x1p-1030, math.Nextafter(0x1p-1022, 0)} {
		if got, want := log(x), math.Log(x*0x1p54)-54*math.Ln2; ulps(got, want) > 1 {
			t.Errorf("log(%v) = %v, want %v", x, got, want)
		}
	}
	if got, want := log(0x1p-1074), -1074*math.Ln2; ulps(got, want) > 1 {
		t.Errorf("log(2^-1074) = %v, want %v", got, want)
	}
	for _, x := range []float64{0x1p-1022, 1, 2213} {
		if got, want := log(x), logNormal(x); got != want {
			t.Errorf("log(%v) = %v, logNormal gives %v", x, got, want)
		}
	}
	if got := log(0); !math.IsInf(got, -1) {
		t.Errorf("log(0) = %v", got)
	}
	if got := log(math.Inf(1)); !math.IsInf(got, 1) {
		t.Errorf("log(+Inf) = %v", got)
	}
	if !math.IsNaN(log(-1)) || !math.IsNaN(log(math.NaN())) {
		t.Error("log of a negative or NaN is not NaN")
	}
}

// No variate in this package takes a transcendental function from the
// math package, whose kernels differ between hosts (amd64's Exp takes
// another path on CPUs with FMA; other platforms may fuse the pure-Go
// code). Only the Lanczos gamma behind Weibull.Mean, which draws
// nothing, may.
func TestVariatesUseOwnedTranscendentals(t *testing.T) {
	banned := map[string]bool{"Exp": true, "Exp2": true, "Expm1": true, "Log": true, "Log10": true,
		"Log1p": true, "Log2": true, "Pow": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			where := "package scope"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if fn.Recv == nil && fn.Name.Name == "gamma" {
					continue
				}
				where = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "math" && banned[sel.Sel.Name] {
					t.Errorf("%s: %s calls math.%s", fset.Position(sel.Pos()), where, sel.Sel.Name)
				}
				return true
			})
		}
	}
}

func BenchmarkNormalVariate(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal(0, 1)
	}
}
