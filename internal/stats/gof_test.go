package stats

import (
	"math"
	"testing"

	"rocc/internal/rng"
)

func TestKSStatisticSmallForTrueDistribution(t *testing.T) {
	xs := sampleFrom(10, 10000, func(r *rng.Stream) float64 { return r.Exp(50) })
	fit := ExpFit{MeanVal: 50}
	d := KSStatistic(xs, fit.CDF)
	crit, err := KSCriticalValue(len(xs), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if d > crit {
		t.Fatalf("KS %v exceeds 1%% critical value %v for true distribution", d, crit)
	}
}

func TestKSStatisticLargeForWrongDistribution(t *testing.T) {
	xs := sampleFrom(11, 10000, func(r *rng.Stream) float64 { return r.Lognormal(100, 300) })
	fit := ExpFit{MeanVal: 100}
	d := KSStatistic(xs, fit.CDF)
	crit, _ := KSCriticalValue(len(xs), 0.01)
	if d < crit {
		t.Fatalf("KS %v did not reject badly wrong distribution (crit %v)", d, crit)
	}
}

func TestKSEdgeCases(t *testing.T) {
	if KSStatistic(nil, func(float64) float64 { return 0 }) != 0 {
		t.Fatal("empty sample should give 0")
	}
	if _, err := KSCriticalValue(0, 0.05); err == nil {
		t.Fatal("want error for n=0")
	}
	if _, err := KSCriticalValue(10, 0.123); err == nil {
		t.Fatal("want error for unsupported alpha")
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.6448536269514722, 0.95},
		{-1.6448536269514722, 0.05},
		{1.959963984540054, 0.975},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalInvCDFRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-6, 0.001, 0.025, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999, 1 - 1e-6} {
		z := NormalInvCDF(p)
		if got := NormalCDF(z); math.Abs(got-p) > 1e-9 {
			t.Errorf("round trip p=%v: got %v", p, got)
		}
	}
	if !math.IsInf(NormalInvCDF(0), -1) || !math.IsInf(NormalInvCDF(1), 1) {
		t.Fatal("boundary quantiles should be infinite")
	}
}

func TestTInvCDFKnownValues(t *testing.T) {
	// Standard t-table values (two-sided 90% -> p = 0.95).
	cases := []struct {
		p    float64
		df   int
		want float64
		tol  float64
	}{
		{0.95, 1, 6.3138, 1e-3},
		{0.95, 2, 2.9200, 1e-3},
		{0.95, 5, 2.0150, 5e-3},
		{0.95, 10, 1.8125, 2e-3},
		{0.95, 49, 1.6766, 1e-3}, // the paper's r=50 experiments
		{0.975, 30, 2.0423, 2e-3},
	}
	for _, c := range cases {
		if got := TInvCDF(c.p, c.df); math.Abs(got-c.want) > c.tol {
			t.Errorf("t(%v, df=%d) = %v, want %v", c.p, c.df, got, c.want)
		}
	}
	if !math.IsNaN(TInvCDF(0.95, 0)) {
		t.Fatal("df=0 should be NaN")
	}
}

func TestMeanCI(t *testing.T) {
	xs := sampleFrom(14, 50, func(r *rng.Stream) float64 { return r.Normal(100, 10) })
	ci, err := MeanCI(xs, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Contains(100) {
		// A 90% CI can miss, but with this seed it should not; treat as regression.
		t.Fatalf("CI [%v, %v] misses true mean 100", ci.Low(), ci.High())
	}
	if ci.HalfWidth <= 0 {
		t.Fatal("nonpositive half-width")
	}
	if _, err := MeanCI([]float64{1}, 0.9); err == nil {
		t.Fatal("want error for n<2")
	}
	if _, err := MeanCI(xs, 1.5); err == nil {
		t.Fatal("want error for bad level")
	}
}

func TestMeanCICoverage(t *testing.T) {
	// Across many replications, the 90% CI should cover the true mean
	// roughly 90% of the time.
	master := rng.New(99)
	hits := 0
	const reps = 2000
	for i := 0; i < reps; i++ {
		r := master.Derive(uint64(i))
		xs := make([]float64, 20)
		for j := range xs {
			xs[j] = r.Normal(5, 2)
		}
		ci, err := MeanCI(xs, 0.90)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Contains(5) {
			hits++
		}
	}
	cover := float64(hits) / reps
	if cover < 0.87 || cover > 0.93 {
		t.Fatalf("90%% CI empirical coverage = %v", cover)
	}
}

func TestHistogramBasics(t *testing.T) {
	xs := []float64{0.5, 1.5, 1.6, 2.5, 3.5, -1, 10}
	h, err := NewHistogram(xs, 0, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 7 || h.Under != 1 || h.Over != 1 {
		t.Fatalf("totals %d/%d/%d", h.Total, h.Under, h.Over)
	}
	want := []int{1, 2, 1, 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("bin %d = %d, want %d", i, c, want[i])
		}
	}
	centers := h.BinCenters()
	if centers[0] != 0.5 || centers[3] != 3.5 {
		t.Fatalf("centers %v", centers)
	}
	// Density integrates to in-range fraction.
	fs := h.RelativeFrequencies()
	integral := 0.0
	for _, f := range fs {
		integral += f * h.Width
	}
	if math.Abs(integral-5.0/7) > 1e-12 {
		t.Fatalf("density integral %v", integral)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 0, 1, 0); err == nil {
		t.Fatal("want error for 0 bins")
	}
	if _, err := NewHistogram(nil, 1, 1, 3); err == nil {
		t.Fatal("want error for empty range")
	}
}

func TestQQSeriesEmpty(t *testing.T) {
	if _, err := QQSeries(nil, func(p float64) float64 { return p }); err == nil {
		t.Fatal("want error on empty")
	}
	if QQCorrelation(nil) != 0 {
		t.Fatal("correlation of empty should be 0")
	}
	if QQCorrelation([]QQPoint{{1, 1}, {1, 2}}) != 0 {
		t.Fatal("degenerate x-variance should give 0")
	}
}
