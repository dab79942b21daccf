package obs

import (
	"math"
	"sync"
	"sync/atomic"

	"rocc/internal/des"
)

// Counter is a monotonically increasing count. Writes come from the
// single simulation goroutine, but the live telemetry exporter
// (internal/obs/live) reads counters from an HTTP handler while a run
// mutates them, so both sides are atomic: a scrape observes a consistent
// value without ever stalling the hot path.
type Counter struct {
	Name string
	v    atomic.Uint64
}

// Add increments the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time value, readable concurrently with Set (the
// float is stored as atomic bits).
type Gauge struct {
	Name string
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a bucketed distribution with interpolated quantiles. The
// bucket i counts observations in (bounds[i-1], bounds[i]]; one overflow
// bucket catches everything above the last bound.
//
// Observe finds the bucket in O(1) through one lookup path (bucket): an
// exponent-indexed start table skips every bound below v's binade, and a
// short scan crosses the few bounds inside it. The histogram is safe to
// snapshot from the live exporter while the simulation goroutine observes
// into it: every access holds the histogram's lock, which the members of
// a HistogramSet share so one acquisition records a value into each.
type Histogram struct {
	Name string
	// mu guards everything below. It is uncontended on the hot path (the
	// exporter takes it only per scrape) and allocation-free, so Observe
	// stays zero-alloc. Members of one HistogramSet point at the same lock.
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

// NewHistogram returns a histogram over the given strictly ascending
// bucket bounds (no NaN).
func NewHistogram(name string, bounds []float64) *Histogram {
	return newHistogram(name, bounds, new(sync.Mutex))
}

func newHistogram(name string, bounds []float64, mu *sync.Mutex) *Histogram {
	for i, b := range bounds {
		if math.IsNaN(b) || i > 0 && b <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
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
func (h *Histogram) buildStart() {
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
// for the √2-spaced latency buckets it then crosses at most three bounds.
func (h *Histogram) bucket(v float64) int {
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

// HistogramSet is a group of histograms over the same bounds that share
// one lock, so ObserveSet records a value into every member under a single
// acquisition. Each member is still a full Histogram: a scrape snapshots
// or reads it alone, under the shared lock.
type HistogramSet struct {
	mu sync.Mutex
	hs []*Histogram
}

// NewHistogramSet returns one histogram per name over the same bounds,
// all sharing the set's lock.
func NewHistogramSet(bounds []float64, names ...string) *HistogramSet {
	s := &HistogramSet{hs: make([]*Histogram, len(names))}
	for i, name := range names {
		s.hs[i] = newHistogram(name, bounds, &s.mu)
	}
	return s
}

// Histogram returns the set's i-th member.
func (s *HistogramSet) Histogram(i int) *Histogram { return s.hs[i] }

// ObserveSet records vs[i] into the i-th member, all under one lock
// acquisition; vs must have one value per member.
func (s *HistogramSet) ObserveSet(vs []float64) {
	s.mu.Lock()
	for i, h := range s.hs {
		h.observe(vs[i])
	}
	s.mu.Unlock()
}

// ExpBuckets returns n exponentially spaced bounds starting at start with
// the given growth factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
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
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.observe(v)
	h.mu.Unlock()
}

// observe merges one value into the buckets; h.mu held.
func (h *Histogram) observe(v float64) {
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

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the exact mean of all observations (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.max
}

// HistogramSnapshot is a point-in-time copy of a histogram, safe to read
// while the run keeps observing: bucket counts (one overflow bucket past
// the last bound), total, sum, and observed extremes.
type HistogramSnapshot struct {
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
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
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
// holding the target rank and interpolating linearly within it, on the
// usual assumption of uniform spread inside a bucket. The estimate is
// clamped to the observed [Min, Max], which also gives exact answers for
// the overflow bucket and single-bucket edge cases. Returns 0 when empty.
func (h *Histogram) Quantile(p float64) float64 {
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
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return h.max
}

// Reset zeroes the histogram in place (identity-preserving, so live
// exporters holding a reference keep reading the same histogram across a
// warmup reset).
func (h *Histogram) Reset() {
	h.mu.Lock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum = 0, 0
	h.min, h.max = math.Inf(1), math.Inf(-1)
	h.mu.Unlock()
}

// Series is one sampled time series: value V[i] observed at simulated
// time T[i] (microseconds). The sampler appends under mu so the live
// exporter can read Len/Last mid-run; post-run analysis code may keep
// reading T/V directly — by then the run goroutine is done, so there is
// no concurrent writer left to race with.
type Series struct {
	Name string
	T    []float64
	V    []float64

	mu sync.Mutex
}

// append records one locked observation (the Sampler's write path).
func (s *Series) append(t, v float64) {
	s.mu.Lock()
	s.T = append(s.T, t)
	s.V = append(s.V, v)
	s.mu.Unlock()
}

// Len returns the number of samples recorded so far (safe mid-run).
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.T)
}

// Last returns the most recent (time, value) sample, with ok reporting
// whether any sample exists yet (safe mid-run).
func (s *Series) Last() (t, v float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.T) == 0 {
		return 0, 0, false
	}
	return s.T[len(s.T)-1], s.V[len(s.V)-1], true
}

// Metrics is the run's metric registry: fixed counters covering the
// sample pipeline, the delivery-latency histogram, and any sampler
// series. Everything is touched from the single simulation goroutine;
// no locking.
type Metrics struct {
	Events        Counter // engine events dispatched
	Generated     Counter // samples written by application processes
	Delivered     Counter // samples received at the main process
	DeliveredMsgs Counter // forwarded messages received at the main process
	Dropped       Counter // samples discarded at full pipes
	BlockedPuts   Counter // application writes stalled on a full pipe
	Batches       Counter // daemon pipe-drain batches
	Forwards      Counter // messages put on the network by daemons
	Retransmits   Counter // resilient-uplink retries
	Crashes       Counter // daemon crashes
	Lost          Counter // samples lost for good (thinning, crashes, links)

	// Latency is the end-to-end sample delivery delay in microseconds
	// (generation at the application to receipt at the main process) —
	// the Figure 16 quantity, as a distribution rather than a mean.
	Latency *Histogram

	series []*Series
}

// NewMetrics returns a registry with the standard pipeline counters and a
// latency histogram spanning 100 µs to ~100 s in quarter-decade buckets.
func NewMetrics() *Metrics {
	m := &Metrics{Latency: NewHistogram("sample_latency_us", ExpBuckets(100, math.Sqrt2, 40))}
	for name, c := range map[string]*Counter{
		"events":       &m.Events,
		"generated":    &m.Generated,
		"delivered":    &m.Delivered,
		"messages":     &m.DeliveredMsgs,
		"dropped":      &m.Dropped,
		"blocked_puts": &m.BlockedPuts,
		"batches":      &m.Batches,
		"forwards":     &m.Forwards,
		"retransmits":  &m.Retransmits,
		"crashes":      &m.Crashes,
		"lost":         &m.Lost,
	} {
		c.Name = name
	}
	return m
}

// Counters returns the registry's counters in a stable order.
func (m *Metrics) Counters() []*Counter {
	return []*Counter{
		&m.Events, &m.Generated, &m.Delivered, &m.DeliveredMsgs, &m.Dropped,
		&m.BlockedPuts, &m.Batches, &m.Forwards, &m.Retransmits, &m.Crashes,
		&m.Lost,
	}
}

// Series returns the sampler time series registered so far.
func (m *Metrics) Series() []*Series { return m.series }

// Reset zeroes all counters, the latency histogram, and sampler series
// (warmup removal); probe registrations survive.
func (m *Metrics) Reset() {
	for _, c := range m.Counters() {
		c.v.Store(0)
	}
	m.Latency.Reset()
	for _, s := range m.series {
		s.mu.Lock()
		s.T = s.T[:0]
		s.V = s.V[:0]
		s.mu.Unlock()
	}
}

// Sampler periodically captures gauge-style probes as time series. It
// rides the simulator's own event calendar: each tick reads every probe
// and reschedules itself, so sampling is purely observational — it runs
// no model code and leaves model-event ordering untouched.
type Sampler struct {
	sim      *des.Simulator
	interval float64
	probes   []probe
	stopped  bool

	// expect is the tick-count capacity hint for new probe series
	// (SetExpectedTicks); tickFn is the reusable reschedule closure
	// (a method value would allocate at every tick).
	expect int
	tickFn func()
}

// SetExpectedTicks sizes the T/V slices of subsequently registered probes
// for n ticks, so a run of known length appends without growth. Callers
// derive n from the run geometry: (warmup+duration)/interval, plus slack.
func (s *Sampler) SetExpectedTicks(n int) {
	if n > 0 {
		s.expect = n
	}
}

type probe struct {
	series *Series
	read   func(tUS float64) float64
}

// NewSampler returns a sampler ticking every interval microseconds
// (interval must be positive).
func NewSampler(sim *des.Simulator, interval float64) *Sampler {
	if interval <= 0 {
		panic("obs: sampler interval must be positive")
	}
	return &Sampler{sim: sim, interval: interval}
}

// Probe registers a named probe; read is called at each tick with the
// current simulated time. The returned series fills as the run advances
// and is also appended to the registry m (when m is non-nil).
func (s *Sampler) Probe(m *Metrics, name string, read func(tUS float64) float64) *Series {
	ser := &Series{Name: name}
	if s.expect > 0 {
		ser.T = make([]float64, 0, s.expect)
		ser.V = make([]float64, 0, s.expect)
	}
	s.probes = append(s.probes, probe{series: ser, read: read})
	if m != nil {
		m.series = append(m.series, ser)
	}
	return ser
}

// Start schedules the first tick. Call once, after all probes are
// registered.
func (s *Sampler) Start() {
	s.tickFn = s.tick
	s.sim.Schedule(s.interval, s.tickFn)
}

// Stop halts sampling after the current tick.
func (s *Sampler) Stop() { s.stopped = true }

func (s *Sampler) tick() {
	if s.stopped {
		return
	}
	t := float64(s.sim.Now())
	for _, p := range s.probes {
		p.series.append(t, p.read(t))
	}
	s.sim.Schedule(s.interval, s.tickFn)
}
