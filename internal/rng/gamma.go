package rng

import "math"

// Gamma returns a gamma variate with the given shape and scale using the
// Marsaglia-Tsang squeeze method (with the standard boost for shape < 1).
func (r *Stream) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma parameters must be positive")
	}
	if shape < 1 {
		// Boost: G(a) = G(a+1) * U^(1/a).
		u := r.open()
		return r.Gamma(shape+1, scale) * exp(logNormal(u)/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Normal(0, 1)
			v = 1 + float64(c*x)
			if v > 0 {
				break
			}
		}
		v = float64(float64(v*v) * v)
		u := r.open()
		x2 := float64(x * x)
		if u < 1-float64(float64(0.0331*x2)*x2) {
			return scale * d * v
		}
		if logNormal(u) < float64(0.5*x2)+float64(d*(1-v+log(v))) {
			return scale * d * v
		}
	}
}

// GammaDist is a gamma distribution with the given shape and scale.
type GammaDist struct{ Shape, Scale float64 }

// Sample implements Dist.
func (g GammaDist) Sample(r *Stream) float64 { return r.Gamma(g.Shape, g.Scale) }

// Mean implements Dist.
func (g GammaDist) Mean() float64 { return g.Shape * g.Scale }

func (g GammaDist) String() string { return format("gamma", g.Shape, g.Scale) }
