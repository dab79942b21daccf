package obs

import (
	"sync"
	"sync/atomic"

	"rocc/internal/des"
	"rocc/internal/stats"
)

// Counter is a monotonically increasing count, safe for concurrent use.
// A run's counters are written by the single simulation goroutine and a
// sweep's by its slot goroutines, while the live telemetry exporter
// (internal/obs/live) reads them from an HTTP handler, so both sides are
// atomic: a scrape observes a consistent value without ever stalling the
// hot path.
type Counter struct {
	Name string
	v    atomic.Uint64
}

// Add increments the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

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
	// Events is the number of engine events dispatched since the last
	// Reset. Nothing bumps it per event: Sampler.CountEvents binds it to
	// the simulator's own Dispatched count, which SyncEvents stores into
	// it at every sampler tick. Mid-run it therefore advances in steps;
	// once the run's owner calls SyncEvents at the end it is exact.
	Events        Counter
	Generated     Counter // samples written by application processes
	Delivered     Counter // samples received at the main process
	DeliveredMsgs Counter // forwarded messages received at the main process
	BlockedPuts   Counter // application writes stalled on a full pipe
	Batches       Counter // daemon pipe-drain batches
	Forwards      Counter // messages put on the network by daemons
	Retransmits   Counter // resilient-uplink retries
	Crashes       Counter // daemon crashes
	Lost          Counter // samples lost for good (thinning, crashes, links)

	// Latency is the end-to-end sample delivery delay in microseconds
	// (generation at the application to receipt at the main process) —
	// the Figure 16 quantity, as a distribution rather than a mean. It is
	// the main process's own histogram (procs.MainProcess.Latencies),
	// which records every delivered sample and fills the Result's
	// quantiles; the registry exports it but never observes into it.
	Latency *stats.BucketHistogram

	series []*Series

	// sim is the simulator Events counts (nil until CountEvents);
	// eventsBase is its Dispatched count at the last Reset.
	sim        *des.Simulator
	eventsBase uint64
}

// NewMetrics returns a registry with the standard pipeline counters over
// the given delivery-latency histogram.
func NewMetrics(latency *stats.BucketHistogram) *Metrics {
	m := &Metrics{Latency: latency}
	for name, c := range map[string]*Counter{
		"events":       &m.Events,
		"generated":    &m.Generated,
		"delivered":    &m.Delivered,
		"messages":     &m.DeliveredMsgs,
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
		&m.Events, &m.Generated, &m.Delivered, &m.DeliveredMsgs,
		&m.BlockedPuts, &m.Batches, &m.Forwards, &m.Retransmits, &m.Crashes,
		&m.Lost,
	}
}

// SyncEvents stores into Events the events the bound simulator has
// dispatched since the last Reset; it does nothing before CountEvents.
// Call it from the simulation goroutine, between events or after the run.
func (m *Metrics) SyncEvents() {
	if m.sim != nil {
		m.Events.v.Store(m.sim.Dispatched - m.eventsBase)
	}
}

// Series returns the sampler time series registered so far.
func (m *Metrics) Series() []*Series { return m.series }

// Reset zeroes all counters, the latency histogram, and sampler series
// (warmup removal); probe registrations survive. Events restarts from the
// simulator's dispatch count at the reset.
func (m *Metrics) Reset() {
	for _, c := range m.Counters() {
		c.v.Store(0)
	}
	if m.sim != nil {
		m.eventsBase = m.sim.Dispatched
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

	// expect is the tick-count capacity hint for new probe series
	// (SetExpectedTicks); tickFn is the reusable reschedule closure
	// (a method value would allocate at every tick).
	expect int
	tickFn func()

	events *Metrics // registry whose Events each tick syncs (CountEvents)
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

// CountEvents makes m.Events count the events the sampler's simulator
// dispatches from now on, rebased at every m.Reset: each tick stores the
// count, and m.SyncEvents makes it exact at the end of a run. Nothing
// runs per event.
func (s *Sampler) CountEvents(m *Metrics) {
	m.sim, m.eventsBase = s.sim, s.sim.Dispatched
	s.events = m
}

// Start schedules the first tick. Call once, after all probes are
// registered.
func (s *Sampler) Start() {
	s.tickFn = s.tick
	s.sim.Schedule(s.interval, s.tickFn)
}

func (s *Sampler) tick() {
	if s.events != nil {
		s.events.SyncEvents()
	}
	t := float64(s.sim.Now())
	for _, p := range s.probes {
		p.series.append(t, p.read(t))
	}
	s.sim.Schedule(s.interval, s.tickFn)
}
