package rng

import (
	"math"
	"testing"
	"testing/quick"
)

const sampleN = 200000

func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(len(xs)-1))
	return mean, sd
}

func draw(t *testing.T, f func(r *Stream) float64) []float64 {
	t.Helper()
	r := New(12345)
	xs := make([]float64, sampleN)
	for i := range xs {
		xs[i] = f(r)
	}
	return xs
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds agreed %d/1000 times", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	before := *parent
	c1 := parent.Derive(1)
	c2 := parent.Derive(2)
	if parent.s != before.s {
		t.Fatal("Derive advanced the parent stream")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("substreams with distinct ids produced the same first draw")
	}
	// Deriving the same id twice must give the same stream.
	d1, d2 := parent.Derive(9), parent.Derive(9)
	for i := 0; i < 100; i++ {
		if d1.Uint64() != d2.Uint64() {
			t.Fatalf("re-derived substream diverged at draw %d", i)
		}
	}
}

// DeriveInto overwrites a used stream — advanced, with a cached normal
// spare — with exactly the substream Derive returns, and Derive's draws
// keep the values they had when it built a fresh stream itself.
func TestDeriveIntoMatchesDerive(t *testing.T) {
	parent := New(7)
	var st Stream
	parent.DeriveInto(&st, 3)
	st.Normal(0, 1) // leaves a spare behind
	st.Uint64()
	parent.DeriveInto(&st, 9)
	want := parent.Derive(9)
	if st != *want {
		t.Fatalf("DeriveInto gave %+v, Derive %+v", st, *want)
	}
	for i, w := range []uint64{0xced94a294dc32c75, 0x6a3afe0a24c4505a, 0xc1b14fd5f1f9610b} {
		if got := st.Uint64(); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i, got, w)
		}
	}
	// Deriving into the parent itself reads the parent before writing it.
	self := New(7)
	self.DeriveInto(self, 9)
	if *self != *want {
		t.Fatalf("DeriveInto(self) gave %+v, want %+v", *self, *want)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	xs := draw(t, func(r *Stream) float64 { return r.Float64() })
	mean, _ := meanSD(xs)
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestExpMoments(t *testing.T) {
	const want = 267.0 // Table 2 Pd CPU request mean
	xs := draw(t, func(r *Stream) float64 { return r.Exp(want) })
	mean, sd := meanSD(xs)
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("exp mean = %v, want ~%v", mean, want)
	}
	if math.Abs(sd-want)/want > 0.02 {
		t.Fatalf("exp sd = %v, want ~%v", sd, want)
	}
}

func TestNormalMoments(t *testing.T) {
	xs := draw(t, func(r *Stream) float64 { return r.Normal(10, 3) })
	mean, sd := meanSD(xs)
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(sd-3) > 0.05 {
		t.Fatalf("normal sd = %v, want ~3", sd)
	}
}

func TestLognormalMoments(t *testing.T) {
	// Table 2 application CPU request: lognormal(2213, 3034).
	xs := draw(t, func(r *Stream) float64 { return r.Lognormal(2213, 3034) })
	mean, sd := meanSD(xs)
	if math.Abs(mean-2213)/2213 > 0.03 {
		t.Fatalf("lognormal mean = %v, want ~2213", mean)
	}
	if math.Abs(sd-3034)/3034 > 0.06 {
		t.Fatalf("lognormal sd = %v, want ~3034", sd)
	}
}

func TestLognormalParamsRoundTrip(t *testing.T) {
	mu, sigma := LognormalParams(100, 50)
	gotMean := math.Exp(mu + sigma*sigma/2)
	gotVar := (math.Exp(sigma*sigma) - 1) * math.Exp(2*mu+sigma*sigma)
	if math.Abs(gotMean-100) > 1e-9 {
		t.Fatalf("round-trip mean = %v", gotMean)
	}
	if math.Abs(math.Sqrt(gotVar)-50) > 1e-9 {
		t.Fatalf("round-trip sd = %v", math.Sqrt(gotVar))
	}
}

func TestWeibullMean(t *testing.T) {
	w := Weibull{Shape: 2, Scale: 100}
	xs := draw(t, func(r *Stream) float64 { return w.Sample(r) })
	mean, _ := meanSD(xs)
	want := w.Mean() // 100*Gamma(1.5) = 88.62...
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("weibull mean = %v, want ~%v", mean, want)
	}
	if math.Abs(want-88.6227) > 0.01 {
		t.Fatalf("weibull analytic mean = %v, want 88.6227", want)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn bucket %d count %d far from uniform 10000", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// Property: all variates from positive-parameter distributions are positive.
func TestQuickVariatesPositive(t *testing.T) {
	f := func(seed uint64, meanSeed uint16) bool {
		mean := 1 + float64(meanSeed)
		r := New(seed)
		for i := 0; i < 50; i++ {
			if r.Exp(mean) <= 0 {
				return false
			}
			if r.Lognormal(mean, mean/2) <= 0 {
				return false
			}
			if r.Weibull(1.5, mean) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Uniform(a, b) stays within [a, b) for a < b.
func TestQuickUniformRange(t *testing.T) {
	f := func(seed uint64, a float64, width uint16) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e12 {
			return true // skip pathological inputs
		}
		b := a + 1 + float64(width)
		r := New(seed)
		for i := 0; i < 100; i++ {
			u := r.Uniform(a, b)
			if u < a || u >= b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDistInterfaces(t *testing.T) {
	r := New(11)
	dists := []Dist{
		Constant{Value: 5},
		Exponential{MeanVal: 100},
		Lognormal{MeanVal: 2213, SD: 3034},
		Weibull{Shape: 1.2, Scale: 50},
		UniformDist{Low: 1, High: 9},
		Empirical{Values: []float64{1, 2, 3}},
	}
	for _, d := range dists {
		if d.String() == "" {
			t.Errorf("%T: empty String()", d)
		}
		v := d.Sample(r)
		if math.IsNaN(v) {
			t.Errorf("%s: NaN sample", d)
		}
		if d.Mean() < 0 {
			t.Errorf("%s: negative mean", d)
		}
	}
}

func TestEmpiricalDist(t *testing.T) {
	e := Empirical{Values: []float64{2, 4, 6}}
	if got := e.Mean(); got != 4 {
		t.Fatalf("empirical mean = %v, want 4", got)
	}
	r := New(2)
	for i := 0; i < 100; i++ {
		v := e.Sample(r)
		if v != 2 && v != 4 && v != 6 {
			t.Fatalf("empirical sample %v not in value set", v)
		}
	}
	var empty Empirical
	if empty.Mean() != 0 || empty.Sample(r) != 0 {
		t.Fatal("empty empirical should yield zeros")
	}
}

func TestConstantDist(t *testing.T) {
	c := Constant{Value: 7.5}
	if c.Sample(New(1)) != 7.5 || c.Mean() != 7.5 {
		t.Fatal("constant dist misbehaves")
	}
}

func TestGammaFunction(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 1}, {2, 1}, {3, 2}, {4, 6}, {5, 24},
		{0.5, math.Sqrt(math.Pi)},
		{1.5, math.Sqrt(math.Pi) / 2},
	}
	for _, c := range cases {
		if got := gamma(c.x); math.Abs(got-c.want)/c.want > 1e-10 {
			t.Errorf("gamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(99)
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / 100000
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) hit rate %v", p)
	}
}

func BenchmarkExpVariate(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(267)
	}
}

func BenchmarkLognormalVariate(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Lognormal(2213, 3034)
	}
}

// Prepare must change only the cost of a draw: from the same seed, the
// prepared and the plain distribution give bit-identical variates and
// leave the stream in the same state, with the same Mean and String.
func TestPrepareDrawsBitIdentical(t *testing.T) {
	lnMix := Mixture{
		Components: []Dist{Lognormal{MeanVal: 294, SD: 206}, Lognormal{MeanVal: 367, SD: 819}, Exponential{MeanVal: 58}},
		Weights:    []float64{0.5, 0.3, 0.2},
	}
	for _, d := range []Dist{
		Constant{Value: 3},
		Exponential{MeanVal: 223},
		Lognormal{MeanVal: 2213, SD: 3034},
		Lognormal{MeanVal: 500, SD: 0},
		Lognormal{MeanVal: 10, SD: 400}, // cv 40
		Weibull{Shape: 0.7, Scale: 100},
		UniformDist{Low: 2, High: 9},
		Empirical{Values: []float64{1, 4, 9, 16}},
		GammaDist{Shape: 0.6, Scale: 30},
		lnMix,
		Mixture{Components: []Dist{lnMix, Lognormal{MeanVal: 1, SD: 1}}, Weights: []float64{1, 1}},
		Mixture{},
	} {
		p := Prepare(d)
		a, b := New(11), New(11)
		for i := 0; i < 20000; i++ {
			x, y := d.Sample(a), p.Sample(b)
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%v draw %d: prepared %v, plain %v", d, i, y, x)
			}
		}
		if a.Uint64() != b.Uint64() || a.hasSpare != b.hasSpare || a.spare != b.spare {
			t.Fatalf("%v: streams diverged", d)
		}
		if math.Float64bits(p.Mean()) != math.Float64bits(d.Mean()) || p.String() != d.String() {
			t.Fatalf("%v: prepared Mean/String %v %q, plain %v %q", d, p.Mean(), p.String(), d.Mean(), d.String())
		}
	}
	if _, ok := Prepare(Lognormal{MeanVal: 1, SD: 1}).(Lognormal); ok {
		t.Fatal("a valid Lognormal came back unprepared")
	}
	// Invalid parameters stay as they are, so the panic stays at the
	// first draw.
	for _, d := range []Lognormal{{MeanVal: 0, SD: 1}, {MeanVal: -3, SD: 1}, {MeanVal: 5, SD: -1}} {
		if p := Prepare(d); p != Dist(d) {
			t.Fatalf("invalid %v prepared to %#v", d, p)
		}
	}
}
