package stats

import (
	"errors"
	"math"
	"sort"
)

// KSStatistic returns the two-sided Kolmogorov-Smirnov statistic D_n, the
// maximum absolute distance between the empirical CDF of xs and the
// theoretical CDF. Smaller is a better fit.
func KSStatistic(xs []float64, cdf func(float64) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	d := 0.0
	for i, x := range sorted {
		f := cdf(x)
		dPlus := (float64(i)+1)/n - f
		dMinus := f - float64(i)/n
		if dPlus > d {
			d = dPlus
		}
		if dMinus > d {
			d = dMinus
		}
	}
	return d
}

// KSCriticalValue returns the approximate critical value of the K-S
// statistic for sample size n at significance alpha (two-sided), using the
// asymptotic c(alpha)/sqrt(n) form. Supported alphas: 0.10, 0.05, 0.01.
func KSCriticalValue(n int, alpha float64) (float64, error) {
	if n <= 0 {
		return 0, ErrEmptySample
	}
	var c float64
	switch alpha {
	case 0.10:
		c = 1.224
	case 0.05:
		c = 1.358
	case 0.01:
		c = 1.628
	default:
		return 0, errors.New("stats: unsupported K-S alpha (use 0.10, 0.05, or 0.01)")
	}
	return c / math.Sqrt(float64(n)), nil
}
