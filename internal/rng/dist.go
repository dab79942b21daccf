package rng

import (
	"math"
	"strconv"
)

// Dist is a sampleable distribution of request lengths or inter-arrival
// times. Implementations are immutable and safe for concurrent use with
// distinct streams.
type Dist interface {
	// Sample draws one variate using the supplied stream.
	Sample(r *Stream) float64
	// Mean returns the theoretical mean of the distribution.
	Mean() float64
	// String describes the distribution in the notation of Table 2.
	String() string
}

// Constant is a degenerate distribution that always returns Value.
type Constant struct{ Value float64 }

// Sample implements Dist.
func (c Constant) Sample(*Stream) float64 { return c.Value }

// Mean implements Dist.
func (c Constant) Mean() float64 { return c.Value }

func (c Constant) String() string { return format("constant", c.Value) }

// Exponential is an exponential distribution with the given mean, written
// "exponential(m)" in the paper.
type Exponential struct{ MeanVal float64 }

// Sample implements Dist.
func (e Exponential) Sample(r *Stream) float64 { return r.Exp(e.MeanVal) }

// Mean implements Dist.
func (e Exponential) Mean() float64 { return e.MeanVal }

func (e Exponential) String() string { return format("exponential", e.MeanVal) }

// Lognormal is a lognormal distribution specified by the mean and standard
// deviation of the variate, written "lognormal(a, b)" in the paper.
type Lognormal struct{ MeanVal, SD float64 }

// Sample implements Dist.
func (l Lognormal) Sample(r *Stream) float64 { return r.Lognormal(l.MeanVal, l.SD) }

// Mean implements Dist.
func (l Lognormal) Mean() float64 { return l.MeanVal }

func (l Lognormal) String() string { return format("lognormal", l.MeanVal, l.SD) }

// Prepare returns a Dist that draws exactly what d draws, bit for bit and
// from the same stream positions, with the per-distribution setup done
// once here instead of on every Sample. A Lognormal gets its underlying
// normal's (mu, sigma) computed up front — two logarithms and a square
// root per draw otherwise — and a Mixture has each component prepared.
// Every other Dist, and a Lognormal whose parameters LognormalParams
// rejects, comes back unchanged, so an invalid distribution still panics
// at its first draw. Mean and String are those of d.
//
// The result is for sampling only: code that type-switches on the
// concrete Dist types (scenario.SpecOf) must keep seeing d.
func Prepare(d Dist) Dist {
	switch v := d.(type) {
	case Lognormal:
		if v.MeanVal <= 0 || v.SD < 0 {
			return d
		}
		mu, sigma := LognormalParams(v.MeanVal, v.SD)
		return preparedLognormal{Lognormal: v, mu: mu, sigma: sigma}
	case Mixture:
		comps := make([]Dist, len(v.Components))
		for i, c := range v.Components {
			comps[i] = Prepare(c)
		}
		return Mixture{Components: comps, Weights: v.Weights}
	}
	return d
}

// preparedLognormal is a Lognormal with its normal parameters cached; it
// inherits Mean and String.
type preparedLognormal struct {
	Lognormal
	mu, sigma float64
}

// Sample implements Dist.
func (p preparedLognormal) Sample(r *Stream) float64 { return r.lognormal(p.mu, p.sigma) }

// Weibull is a Weibull distribution with the given shape and scale.
type Weibull struct{ Shape, Scale float64 }

// Sample implements Dist.
func (w Weibull) Sample(r *Stream) float64 { return r.Weibull(w.Shape, w.Scale) }

// Mean implements Dist.
func (w Weibull) Mean() float64 { return w.Scale * gamma(1+1/w.Shape) }

func (w Weibull) String() string { return format("weibull", w.Shape, w.Scale) }

// UniformDist is a uniform distribution on [Low, High).
type UniformDist struct{ Low, High float64 }

// Sample implements Dist.
func (u UniformDist) Sample(r *Stream) float64 { return r.Uniform(u.Low, u.High) }

// Mean implements Dist.
func (u UniformDist) Mean() float64 { return (u.Low + u.High) / 2 }

func (u UniformDist) String() string { return format("uniform", u.Low, u.High) }

// Empirical samples uniformly from a fixed set of observations; it is used
// for trace-driven simulation where the measured request lengths are
// replayed directly.
type Empirical struct{ Values []float64 }

// Sample implements Dist.
func (e Empirical) Sample(r *Stream) float64 {
	if len(e.Values) == 0 {
		return 0
	}
	return e.Values[r.Intn(len(e.Values))]
}

// Mean implements Dist.
func (e Empirical) Mean() float64 {
	if len(e.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range e.Values {
		sum += v
	}
	return sum / float64(len(e.Values))
}

func (e Empirical) String() string { return format("empirical", float64(len(e.Values))) }

// Mixture samples from one of several component distributions chosen
// with the given weights — the form produced by cluster-based workload
// characterization (Hughes, "Generating a Drive Workload from Clustered
// Data", reference [13] of the paper).
type Mixture struct {
	Components []Dist
	Weights    []float64 // same length as Components; need not sum to 1
}

// Sample implements Dist.
func (m Mixture) Sample(r *Stream) float64 {
	if len(m.Components) == 0 {
		return 0
	}
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	if total <= 0 {
		return m.Components[r.Intn(len(m.Components))].Sample(r)
	}
	u := float64(r.Float64() * total)
	for i, w := range m.Weights {
		if u < w {
			return m.Components[i].Sample(r)
		}
		u -= w
	}
	return m.Components[len(m.Components)-1].Sample(r)
}

// Mean implements Dist.
func (m Mixture) Mean() float64 {
	if len(m.Components) == 0 {
		return 0
	}
	total, sum := 0.0, 0.0
	for i, c := range m.Components {
		w := 1.0
		if i < len(m.Weights) {
			w = m.Weights[i]
		}
		total += w
		sum += float64(w * c.Mean())
	}
	if total <= 0 {
		return 0
	}
	return sum / total
}

func (m Mixture) String() string {
	return format("mixture", float64(len(m.Components)))
}

// gamma is the Gamma function via the Lanczos approximation (g=7, n=9),
// accurate to ~15 significant digits for the positive arguments used here.
func gamma(x float64) float64 {
	if x < 0.5 {
		// Reflection formula.
		return math.Pi / (math.Sin(math.Pi*x) * gamma(1-x))
	}
	x--
	coef := [...]float64{
		0.99999999999980993,
		676.5203681218851,
		-1259.1392167224028,
		771.32342877765313,
		-176.61502916214059,
		12.507343278686905,
		-0.13857109526572012,
		9.9843695780195716e-6,
		1.5056327351493116e-7,
	}
	a := coef[0]
	t := x + 7.5
	for i := 1; i < len(coef); i++ {
		a += coef[i] / (x + float64(i))
	}
	return math.Sqrt(2*math.Pi) * math.Pow(t, x+0.5) * math.Exp(-t) * a
}

func format(name string, args ...float64) string {
	s := name + "("
	for i, a := range args {
		if i > 0 {
			s += ", "
		}
		s += strconv.FormatFloat(a, 'g', -1, 64)
	}
	return s + ")"
}
