package stats

import (
	"errors"
	"math"
	"sort"
)

// Histogram is a fixed-width-bin frequency histogram over [Low, High), the
// form plotted on the left of Figure 8.
type Histogram struct {
	Low, High float64
	Width     float64
	Counts    []int
	Total     int // all observations, including any outside [Low, High)
	Under     int // observations below Low
	Over      int // observations at or above High
}

// NewHistogram bins xs into nbins equal-width bins spanning [low, high).
func NewHistogram(xs []float64, low, high float64, nbins int) (*Histogram, error) {
	if nbins <= 0 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	if !(high > low) {
		return nil, errors.New("stats: histogram needs high > low")
	}
	h := &Histogram{
		Low:    low,
		High:   high,
		Width:  (high - low) / float64(nbins),
		Counts: make([]int, nbins),
	}
	for _, x := range xs {
		h.Total++
		switch {
		case x < low:
			h.Under++
		case x >= high:
			h.Over++
		default:
			i := int((x - low) / h.Width)
			if i >= nbins { // guard float rounding at the upper edge
				i = nbins - 1
			}
			h.Counts[i]++
		}
	}
	return h, nil
}

// BinCenters returns the midpoints of the bins, for plotting.
func (h *Histogram) BinCenters() []float64 {
	cs := make([]float64, len(h.Counts))
	for i := range cs {
		cs[i] = h.Low + (float64(i)+0.5)*h.Width
	}
	return cs
}

// RelativeFrequencies returns counts normalized so the histogram integrates
// to one (a density estimate), matching the "relative frequency" axes of
// Figure 8.
func (h *Histogram) RelativeFrequencies() []float64 {
	fs := make([]float64, len(h.Counts))
	if h.Total == 0 || h.Width == 0 {
		return fs
	}
	norm := 1 / (float64(h.Total) * h.Width)
	for i, c := range h.Counts {
		fs[i] = float64(c) * norm
	}
	return fs
}

// QQPoint is one point of a quantile-quantile plot.
type QQPoint struct {
	Theoretical float64 // quantile of the fitted distribution
	Observed    float64 // order statistic of the sample
}

// QQSeries returns the Q-Q plot of xs against a theoretical distribution
// given by its inverse CDF, the right-hand plots of Figure 8. The i-th
// order statistic is paired with the ((i-0.5)/n)-quantile.
func QQSeries(xs []float64, invCDF func(p float64) float64) ([]QQPoint, error) {
	if len(xs) == 0 {
		return nil, ErrEmptySample
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	pts := make([]QQPoint, n)
	for i, obs := range sorted {
		p := (float64(i) + 0.5) / float64(n)
		pts[i] = QQPoint{Theoretical: invCDF(p), Observed: obs}
	}
	return pts, nil
}

// QQCorrelation returns the Pearson correlation between the theoretical and
// observed coordinates of a Q-Q series — a scalar measure of linearity used
// to rank candidate distributions (1.0 is a perfect fit).
func QQCorrelation(pts []QQPoint) float64 {
	if len(pts) < 2 {
		return 0
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.Theoretical
		sy += p.Observed
	}
	mx, my := sx/float64(len(pts)), sy/float64(len(pts))
	var sxy, sxx, syy float64
	for _, p := range pts {
		dx, dy := p.Theoretical-mx, p.Observed-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
