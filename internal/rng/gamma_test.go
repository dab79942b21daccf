package rng

import (
	"math"
	"testing"
)

func TestGammaVariatePositive(t *testing.T) {
	r := New(51)
	for _, c := range []struct{ shape, scale float64 }{{0.3, 10}, {1, 50}, {7, 2}} {
		for i := 0; i < 2000; i++ {
			if v := r.Gamma(c.shape, c.scale); v <= 0 || math.IsNaN(v) {
				t.Fatalf("gamma(%v,%v) produced %v", c.shape, c.scale, v)
			}
		}
	}
}

func TestGammaMeanSmallShape(t *testing.T) {
	// The boost path (shape < 1) must preserve the mean.
	r := New(52)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Gamma(0.5, 100)
	}
	mean := sum / n
	if math.Abs(mean-50)/50 > 0.03 {
		t.Fatalf("gamma(0.5,100) mean %v, want ~50", mean)
	}
}

func TestGammaPanics(t *testing.T) {
	r := New(1)
	for _, bad := range [][2]float64{{0, 1}, {-1, 1}, {1, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gamma(%v, %v) did not panic", bad[0], bad[1])
				}
			}()
			r.Gamma(bad[0], bad[1])
		}()
	}
}

func TestGammaDistMethods(t *testing.T) {
	g := GammaDist{Shape: 3, Scale: 10}
	if g.Mean() != 30 {
		t.Fatal("mean")
	}
	if g.String() != "gamma(3, 10)" {
		t.Fatalf("string %q", g.String())
	}
	if v := g.Sample(New(2)); v <= 0 {
		t.Fatal("sample")
	}
}

func TestMixtureMethods(t *testing.T) {
	m := Mixture{
		Components: []Dist{Constant{Value: 1}, Constant{Value: 3}},
		Weights:    []float64{1, 1},
	}
	if m.Mean() != 2 {
		t.Fatalf("mean %v", m.Mean())
	}
	r := New(3)
	ones := 0
	for i := 0; i < 10000; i++ {
		switch m.Sample(r) {
		case 1:
			ones++
		case 3:
		default:
			t.Fatal("sample outside components")
		}
	}
	if ones < 4500 || ones > 5500 {
		t.Fatalf("unbalanced mixture: %d ones", ones)
	}
	// Missing weights default to 1 in Mean.
	m2 := Mixture{Components: []Dist{Constant{Value: 4}, Constant{Value: 8}}, Weights: []float64{1}}
	if m2.Mean() != 6 {
		t.Fatalf("partial weights mean %v", m2.Mean())
	}
	if m.String() != "mixture(2)" {
		t.Fatalf("string %q", m.String())
	}
}

func TestVariatePanics(t *testing.T) {
	r := New(4)
	cases := []func(){
		func() { r.Exp(0) },
		func() { r.Exp(-1) },
		func() { r.Weibull(0, 1) },
		func() { r.Weibull(1, 0) },
		func() { LognormalParams(0, 1) },
		func() { LognormalParams(1, -1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
