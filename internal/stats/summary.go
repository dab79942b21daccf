// Package stats provides the statistics toolkit used throughout the study:
// descriptive summaries (Table 1), histogram and Q-Q series (Figure 8),
// maximum-likelihood distribution fitting (Table 2, per Law & Kelton),
// the Kolmogorov-Smirnov goodness-of-fit statistic, and Student-t
// confidence intervals for the 2^k·r factorial simulation experiments
// (90% intervals from r=50 replications, per Jain).
package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample, the quantities reported
// in Table 1 of the paper for each process type and resource.
type Summary struct {
	N    int
	Mean float64
	SD   float64 // sample standard deviation (n-1 denominator)
	Min  float64
	Max  float64
	Sum  float64
}

// Summarize computes descriptive statistics with Welford's numerically
// stable one-pass algorithm. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	if len(xs) == 0 {
		return s
	}
	s.N = len(xs)
	s.Min = xs[0]
	s.Max = xs[0]
	mean, m2 := 0.0, 0.0
	for i, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	s.Mean = mean
	if s.N > 1 {
		s.SD = math.Sqrt(m2 / float64(s.N-1))
	}
	return s
}

// Variance returns the sample variance.
func (s Summary) Variance() float64 { return s.SD * s.SD }

// CV returns the coefficient of variation (SD/Mean), or 0 for a zero mean.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.SD / s.Mean
}

// Accumulator computes running statistics without retaining the sample;
// the simulator uses one per metric so that 50-replication experiments do
// not hold all observations in memory.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += float64(delta * (x - a.mean))
}

// N returns the number of observations recorded.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean.
func (a *Accumulator) Mean() float64 { return a.mean }

// SD returns the running sample standard deviation.
func (a *Accumulator) SD() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n-1))
}

// Summary converts the accumulator into a Summary value.
func (a *Accumulator) Summary() Summary {
	return Summary{N: a.n, Mean: a.mean, SD: a.SD(), Min: a.min, Max: a.max, Sum: a.mean * float64(a.n)}
}

// ErrEmptySample reports an operation that needs at least one observation.
var ErrEmptySample = errors.New("stats: empty sample")

// Quantile returns the p-th sample quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics (type-7, the common default).
// xs need not be sorted; it is not modified.
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	if p < 0 || p > 1 {
		return 0, errors.New("stats: quantile p out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1], nil
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the sample median.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// MeanOf returns the arithmetic mean, or 0 for an empty slice.
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
