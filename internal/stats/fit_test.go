package stats

import (
	"math"
	"testing"

	"rocc/internal/rng"
)

func sampleFrom(seed uint64, n int, f func(r *rng.Stream) float64) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f(r)
	}
	return xs
}

func TestFitExponentialRecovers(t *testing.T) {
	xs := sampleFrom(1, 50000, func(r *rng.Stream) float64 { return r.Exp(223) })
	fit, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.MeanVal-223)/223 > 0.02 {
		t.Fatalf("fitted mean %v, want ~223", fit.MeanVal)
	}
	if fit.Name() != "exponential" || fit.String() == "" {
		t.Fatal("metadata wrong")
	}
}

func TestFitExponentialErrors(t *testing.T) {
	if _, err := FitExponential(nil); err == nil {
		t.Fatal("want error on empty")
	}
	if _, err := FitExponential([]float64{-1, -2}); err == nil {
		t.Fatal("want error on non-positive mean")
	}
}

func TestFitLognormalRecovers(t *testing.T) {
	// Application CPU requests from Table 2: lognormal(2213, 3034).
	xs := sampleFrom(2, 50000, func(r *rng.Stream) float64 { return r.Lognormal(2213, 3034) })
	fit, err := FitLognormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mean()-2213)/2213 > 0.03 {
		t.Fatalf("fitted mean %v, want ~2213", fit.Mean())
	}
	if math.Abs(fit.SD()-3034)/3034 > 0.06 {
		t.Fatalf("fitted sd %v, want ~3034", fit.SD())
	}
}

func TestFitLognormalErrors(t *testing.T) {
	if _, err := FitLognormal(nil); err == nil {
		t.Fatal("want error on empty")
	}
	if _, err := FitLognormal([]float64{1, 0}); err == nil {
		t.Fatal("want error on non-positive data")
	}
	// Degenerate one-point sample should still produce a usable fit.
	fit, err := FitLognormal([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(fit.CDF(5)) {
		t.Fatal("degenerate fit has NaN CDF")
	}
}

func TestFitWeibullRecovers(t *testing.T) {
	xs := sampleFrom(3, 50000, func(r *rng.Stream) float64 { return r.Weibull(1.7, 400) })
	fit, err := FitWeibull(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Shape-1.7)/1.7 > 0.03 {
		t.Fatalf("fitted shape %v, want ~1.7", fit.Shape)
	}
	if math.Abs(fit.Scale-400)/400 > 0.03 {
		t.Fatalf("fitted scale %v, want ~400", fit.Scale)
	}
}

func TestFitWeibullErrors(t *testing.T) {
	if _, err := FitWeibull(nil); err == nil {
		t.Fatal("want error on empty")
	}
	if _, err := FitWeibull([]float64{1, -1}); err == nil {
		t.Fatal("want error on non-positive data")
	}
}

func TestCDFInvCDFRoundTrips(t *testing.T) {
	fits := []Fitted{
		ExpFit{MeanVal: 223},
		LognormalFit{Mu: 7, Sigma: 0.9},
		WeibullFit{Shape: 1.5, Scale: 300},
	}
	for _, f := range fits {
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			x := f.InvCDF(p)
			if got := f.CDF(x); math.Abs(got-p) > 1e-6 {
				t.Errorf("%s: CDF(InvCDF(%v)) = %v", f.Name(), p, got)
			}
		}
		if f.CDF(-1) != 0 || f.PDF(-1) != 0 {
			t.Errorf("%s: negative support should be zero", f.Name())
		}
	}
}

func TestPDFIntegratesToCDF(t *testing.T) {
	// Trapezoidal integral of the PDF should approximate the CDF.
	fits := []Fitted{
		ExpFit{MeanVal: 100},
		LognormalFit{Mu: 4, Sigma: 0.5},
		WeibullFit{Shape: 2, Scale: 100},
	}
	for _, f := range fits {
		upper := f.InvCDF(0.9)
		const steps = 20000
		h := upper / steps
		integral := 0.0
		for i := 0; i < steps; i++ {
			a, b := float64(i)*h, float64(i+1)*h
			integral += (f.PDF(a) + f.PDF(b)) / 2 * h
		}
		if math.Abs(integral-0.9) > 1e-3 {
			t.Errorf("%s: integral of pdf to q90 = %v, want 0.9", f.Name(), integral)
		}
	}
}

func TestFitBestSelectsCorrectFamily(t *testing.T) {
	// Figure 8a: application CPU requests are best matched by lognormal.
	cpu := sampleFrom(4, 20000, func(r *rng.Stream) float64 { return r.Lognormal(2213, 3034) })
	best, all, err := FitBest(cpu)
	if err != nil {
		t.Fatal(err)
	}
	if best.Dist.Name() != "lognormal" {
		t.Fatalf("best fit for lognormal data is %s (KS=%v)", best.Dist.Name(), best.KS)
	}
	if len(all) != 4 {
		t.Fatalf("expected 4 candidates, got %d", len(all))
	}

	// Figure 8b: application network requests are best matched by exponential.
	// Note the Weibull and gamma families contain the exponential (shape=1),
	// so either MLE can tie or marginally beat it; accept any of the three
	// but require an exponential-like fit.
	net := sampleFrom(5, 20000, func(r *rng.Stream) float64 { return r.Exp(223) })
	best, _, err = FitBest(net)
	if err != nil {
		t.Fatal(err)
	}
	switch d := best.Dist.(type) {
	case ExpFit:
		// fine
	case WeibullFit:
		if math.Abs(d.Shape-1) > 0.05 {
			t.Fatalf("weibull fit to exponential data has shape %v", d.Shape)
		}
	case GammaFit:
		if math.Abs(d.Shape-1) > 0.05 {
			t.Fatalf("gamma fit to exponential data has shape %v", d.Shape)
		}
		t.Logf("gamma fit to exponential data: shape %v, K-S %v", d.Shape, best.KS)
	default:
		t.Fatalf("best fit for exponential data is %s", best.Dist.Name())
	}
}

func TestFitBestEmpty(t *testing.T) {
	if _, _, err := FitBest(nil); err == nil {
		t.Fatal("want error on empty sample")
	}
}

func TestQQCorrelationNearOneForGoodFit(t *testing.T) {
	xs := sampleFrom(6, 5000, func(r *rng.Stream) float64 { return r.Exp(100) })
	fit, _ := FitExponential(xs)
	qq, err := QQSeries(xs, fit.InvCDF)
	if err != nil {
		t.Fatal(err)
	}
	if r := QQCorrelation(qq); r < 0.995 {
		t.Fatalf("QQ correlation %v for matching family", r)
	}
}
