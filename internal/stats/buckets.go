package stats

import (
	"math"
	"sync"
)

// BucketHistogram is a bucketed distribution with interpolated quantiles,
// kept in O(1) space however many values it sees: the main process's
// monitoring-latency distribution and the provenance engine's per-stage
// dwell times. Unlike the fixed-width Figure 8 Histogram it takes
// arbitrary ascending bounds. The bucket i counts observations in
// (bounds[i-1], bounds[i]]; one overflow bucket catches everything above
// the last bound.
//
// Observe finds the bucket in O(1) through one lookup path (bucket): an
// exponent-indexed start table skips every bound below v's binade, and a
// short scan crosses the few bounds inside it. The histogram is safe to
// snapshot from the live exporter while the simulation goroutine observes
// into it: every access holds the histogram's lock, which the members of
// a BucketHistogramSet share so one acquisition records a value into each.
type BucketHistogram struct {
	Name string
	// mu guards everything below. It is uncontended on the hot path (the
	// exporter takes it only per scrape) and allocation-free, so Observe
	// stays zero-alloc. Members of one BucketHistogramSet point at the same lock.
	mu     *sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1
	total  uint64
	sum    float64
	min    float64
	max    float64

	// start[k] is the number of bounds below the smallest positive float
	// whose biased binary exponent is expLo+k; the last entry covers every
	// exponent above the largest finite bound. See bucket.
	start []int
	expLo int
}

// NewBucketHistogram returns a histogram over the given strictly ascending
// bucket bounds (no NaN).
func NewBucketHistogram(name string, bounds []float64) *BucketHistogram {
	return newBucketHistogram(name, bounds, new(sync.Mutex))
}

func newBucketHistogram(name string, bounds []float64, mu *sync.Mutex) *BucketHistogram {
	for i, b := range bounds {
		if math.IsNaN(b) || i > 0 && b <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	h := &BucketHistogram{
		Name:   name,
		mu:     mu,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
	h.buildStart()
	return h
}

// expOf returns the biased binary exponent field of v (0 for ±0 and
// subnormals, 2047 for ±Inf).
func expOf(v float64) int { return int(math.Float64bits(v)>>52) & 0x7ff }

// buildStart fills the exponent-indexed start table over the binades the
// positive finite bounds span, plus one entry for everything above them.
func (h *BucketHistogram) buildStart() {
	b := h.bounds
	pos := 0 // first positive bound
	for pos < len(b) && b[pos] <= 0 {
		pos++
	}
	fin := len(b) // one past the last finite bound
	for fin > 0 && math.IsInf(b[fin-1], 1) {
		fin--
	}
	lo, hi := 0, -1
	if pos < fin {
		lo, hi = expOf(b[pos]), expOf(b[fin-1])
	}
	h.expLo = lo
	h.start = make([]int, hi-lo+2)
	i := 0
	for k := range h.start {
		floor := math.Float64frombits(uint64(lo+k) << 52) // smallest float with exponent lo+k
		for i < len(b) && b[i] < floor {
			i++
		}
		h.start[k] = i
	}
}

// bucket returns the index of the bucket v falls in: exactly what the
// linear scan `for i < len(bounds) && v > bounds[i] { i++ }` returns, on
// every input (NaN lands in bucket 0). For v > 0 the scan starts at the
// table entry for v's binary exponent, which only skips bounds below v;
// it then crosses at most the bounds inside v's binade: two or three for
// √2 spacing, eight or nine for eighth-octave spacing.
func (h *BucketHistogram) bucket(v float64) int {
	i := 0
	if v > 0 {
		k := expOf(v) - h.expLo
		if k < 0 {
			k = 0
		} else if k >= len(h.start) {
			k = len(h.start) - 1
		}
		i = h.start[k]
	}
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// BucketHistogramSet is a group of histograms over the same bounds that share
// one lock, so ObserveSet records a value into every member under a single
// acquisition. Each member is still a full BucketHistogram: a scrape snapshots
// or reads it alone, under the shared lock.
type BucketHistogramSet struct {
	mu sync.Mutex
	hs []*BucketHistogram
}

// NewBucketHistogramSet returns one histogram per name over the same bounds,
// all sharing the set's lock.
func NewBucketHistogramSet(bounds []float64, names ...string) *BucketHistogramSet {
	s := &BucketHistogramSet{hs: make([]*BucketHistogram, len(names))}
	for i, name := range names {
		s.hs[i] = newBucketHistogram(name, bounds, &s.mu)
	}
	return s
}

// Histogram returns the set's i-th member.
func (s *BucketHistogramSet) Histogram(i int) *BucketHistogram { return s.hs[i] }

// ObserveSet records vs[i] into the i-th member, all under one lock
// acquisition. vs holds one or more rows of one value per member, row
// after row; each row is recorded as one call with that row would record
// it, and a trailing partial row is ignored. Each member takes its column
// in row order, and a run of equal values down a column costs one bucket
// lookup (observeColumn), so a stage that a whole message shares is
// bucketed once per message.
func (s *BucketHistogramSet) ObserveSet(vs []float64) {
	n := len(s.hs)
	if n == 0 || len(vs) < n {
		return
	}
	vs = vs[:len(vs)/n*n]
	s.mu.Lock()
	for i, h := range s.hs {
		h.observeColumn(vs[i:], n)
	}
	s.mu.Unlock()
}

// ExpBuckets returns n exponentially spaced bounds starting at start with
// the given growth factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("stats: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *BucketHistogram) Observe(v float64) {
	h.mu.Lock()
	h.observe(v)
	h.mu.Unlock()
}

// ObserveBatch records each value of vs in order under one lock
// acquisition, exactly as one Observe per value would.
func (h *BucketHistogram) ObserveBatch(vs []float64) {
	h.mu.Lock()
	h.observeColumn(vs, 1)
	h.mu.Unlock()
}

// observe merges one value into the buckets; h.mu held.
func (h *BucketHistogram) observe(v float64) {
	h.counts[h.bucket(v)]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// observeColumn merges vs[0], vs[stride], vs[2*stride], ... in that order;
// h.mu held. It ends in exactly the state one observe per value leaves:
// a run of equal values lands in one bucket, whose count and the total
// move by the run's length; only a run's first value can move min or max
// (the rest compare equal, and NaN never joins a run); and sum still adds
// every value, in order, so its rounding is unchanged.
func (h *BucketHistogram) observeColumn(vs []float64, stride int) {
	sum, total, lo, hi := h.sum, h.total, h.min, h.max
	for i := 0; i < len(vs); {
		v := vs[i]
		sum += v
		n := uint64(1)
		for i += stride; i < len(vs) && vs[i] == v; i += stride {
			sum += vs[i]
			n++
		}
		h.counts[h.bucket(v)] += n
		total += n
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	h.sum, h.total, h.min, h.max = sum, total, lo, hi
}

// Sum returns the exact total of all observations, added in observation
// order.
func (h *BucketHistogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Count returns the number of observations.
func (h *BucketHistogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the exact mean of all observations (0 when empty).
func (h *BucketHistogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest observation (0 when empty).
func (h *BucketHistogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.max
}

// BucketSnapshot is a point-in-time copy of a histogram, safe to read
// while the run keeps observing: bucket counts (one overflow bucket past
// the last bound), total, sum, and observed extremes.
type BucketSnapshot struct {
	Name   string
	Bounds []float64
	Counts []uint64 // len(Bounds)+1; last is the overflow bucket
	Total  uint64
	Sum    float64
	Min    float64 // +Inf when empty
	Max    float64 // -Inf when empty
}

// Snapshot returns a consistent copy — the race-safe read the live
// OpenMetrics exporter renders from.
func (h *BucketHistogram) Snapshot() BucketSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return BucketSnapshot{
		Name:   h.Name,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Total:  h.total,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
}

// Quantile estimates the p-quantile (0 <= p <= 1) by locating the bucket
// holding the target rank and interpolating within it. The estimate is
// clamped to the observed [Min, Max], which also gives exact answers for
// the overflow bucket and single-bucket edge cases. Returns 0 when empty.
//
// Inside a bucket whose two neighbours are bounded, the density is taken
// to be linear rather than flat: its slope is the central difference of
// the neighbours' densities (count over width), capped so the density
// stays non-negative across the bucket, and the rank is found on the
// resulting quadratic CDF. In the tail of a distribution the density
// falls across a bucket, so the flat assumption puts upper quantiles too
// high by up to the bucket's width; the slope removes that first-order
// bias. Where the neighbours are equally dense, or a neighbour or the
// bucket itself has no finite bounds, or the bucket is clamped to Min or
// Max, the interpolation is linear.
func (h *BucketHistogram) Quantile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	rank := p * float64(h.total)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			// Bucket i holds the rank. Its value range is
			// (bounds[i-1], bounds[i]], clamped to what was observed.
			lo := h.min
			if i > 0 && h.bounds[i-1] > lo {
				lo = h.bounds[i-1]
			}
			hi := h.max
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			q := (rank - cum) / float64(c)
			return lo + h.slopedFrac(i, lo, hi, q)*(hi-lo)
		}
		cum = next
	}
	return h.max
}

// slopedFrac returns how far through bucket i, spanning [lo, hi], the
// fraction q of its count is reached under a linear density (see
// Quantile); it returns q itself where that density is flat or unknown.
func (h *BucketHistogram) slopedFrac(i int, lo, hi, q float64) float64 {
	if i < 2 || i+1 >= len(h.bounds) || lo != h.bounds[i-1] || hi != h.bounds[i] {
		return q
	}
	b := h.bounds
	prevLo, nextHi := b[i-2], b[i+1]
	if math.IsInf(prevLo, 0) || math.IsInf(nextHi, 0) {
		return q
	}
	w := hi - lo
	d := float64(h.counts[i]) / w
	dPrev := float64(h.counts[i-1]) / (lo - prevLo)
	dNext := float64(h.counts[i+1]) / (nextHi - hi)
	slope := (dNext - dPrev) / ((hi+nextHi)/2 - (prevLo+lo)/2)
	// The density d + slope·(x − mid) over the bucket integrates, as a
	// fraction of the count, to F(t) = t + a·(t² − t) at x = lo + t·w,
	// with a = slope·w/(2d); |a| <= 1 keeps the density non-negative.
	a := math.Max(-1, math.Min(1, slope*w/(2*d)))
	// Solve F(t) = q in the form that is stable as a → 0.
	return 2 * q / ((1 - a) + math.Sqrt((1-a)*(1-a)+4*a*q))
}

// Reset zeroes the histogram in place (identity-preserving, so live
// exporters holding a reference keep reading the same histogram across a
// warmup reset).
func (h *BucketHistogram) Reset() {
	h.mu.Lock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum = 0, 0
	h.min, h.max = math.Inf(1), math.Inf(-1)
	h.mu.Unlock()
}
