// Package live is the runtime telemetry plane over internal/obs: where
// obs records a run for post-hoc analysis, live exposes the same
// registries while the run is still executing — as OpenMetrics text for
// a Prometheus-style scraper and as JSON progress for humans mid-sweep.
//
// The package has two halves:
//
//   - Exporter renders attached metric sources (obs.Metrics, a
//     distributed sweep's counters, standalone histograms) in the
//     OpenMetrics text exposition format, with every metric family
//     appearing exactly once in a stable sorted order. Reads are
//     race-safe against a mutating run: counters load atomically,
//     histograms and sampler series copy under their locks (see
//     internal/obs and internal/stats).
//   - Server is the embeddable monitoring HTTP server behind the -http
//     flag of roccsweep, roccbench, and roccsim: /metrics (OpenMetrics),
//     /healthz (liveness JSON), /progress (a caller-supplied JSON
//     snapshot, e.g. dist.Progress), and net/http/pprof under
//     /debug/pprof/.
//
// Nothing here touches simulation state: the exporter only reads, and a
// binary that never passes -http pays nothing — no listener, no
// goroutine, no allocation.
package live

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"rocc/internal/obs"
	"rocc/internal/stats"
)

// MetricPrefix is prepended to every exported metric family name.
const MetricPrefix = "rocc_"

// Exporter renders attached metric sources as OpenMetrics text. All
// methods are safe for concurrent use; sources may be attached while
// scrapes are in flight (a scrape sees the sources attached at its
// start).
type Exporter struct {
	mu    sync.Mutex
	run   *obs.Metrics
	sweep []*obs.Counter
	hists []histSource
}

// histSource is one registered standalone histogram (e.g. the provenance
// engine's per-stage dwell histograms).
type histSource struct {
	h    *stats.BucketHistogram
	help string
}

// NewExporter returns an empty exporter; attach sources with SetRun,
// SetSweep, and AddHistogram.
func NewExporter() *Exporter { return &Exporter{} }

// SetRun attaches a simulation run's metric registry: its pipeline
// counters, the delivery-latency histogram, and any sampler series
// (exported as gauges holding each series' latest sample).
func (e *Exporter) SetRun(m *obs.Metrics) {
	e.mu.Lock()
	e.run = m
	e.mu.Unlock()
}

// SetSweep attaches a distributed sweep's fault-handling counters
// (dist.Monitor.Counters), exported as rocc_sweep_<name>_total.
func (e *Exporter) SetSweep(counters []*obs.Counter) {
	e.mu.Lock()
	e.sweep = counters
	e.mu.Unlock()
}

// AddHistogram registers a standalone histogram family (named by the
// histogram itself, rocc_ prefix added). Scrapes snapshot it under its
// lock, so a mutating run never races a scrape. Registering the same
// histogram name twice keeps the first registration.
func (e *Exporter) AddHistogram(h *stats.BucketHistogram, help string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.hists {
		if s.h.Name == h.Name {
			return
		}
	}
	e.hists = append(e.hists, histSource{h: h, help: help})
}

// family is one metric family ready to render: a TYPE line and its
// sample lines.
type family struct {
	name    string // full name, prefix included
	typ     string // counter, gauge, histogram
	help    string
	samples []string // fully rendered sample lines
}

// WriteOpenMetrics renders every attached source in the OpenMetrics text
// exposition format: families sorted by name, each exactly once (the
// first registration wins on a name collision), terminated by the
// mandatory "# EOF" line.
func (e *Exporter) WriteOpenMetrics(w io.Writer) error {
	e.mu.Lock()
	run, sweep := e.run, e.sweep
	hists := append([]histSource(nil), e.hists...)
	e.mu.Unlock()

	var fams []family
	if run != nil {
		for _, c := range run.Counters() {
			fams = append(fams, counterFamily(MetricPrefix+sanitizeName(c.Name),
				"simulation pipeline counter "+c.Name, c.Value()))
		}
		fams = append(fams, histogramFamily(run.Latency, "sample delivery latency distribution"))
		for _, s := range run.Series() {
			s := s
			fams = append(fams, seriesFamily(s))
		}
	}
	for _, hs := range hists {
		fams = append(fams, histogramFamily(hs.h, hs.help))
	}
	for _, c := range sweep {
		fams = append(fams, counterFamily(MetricPrefix+"sweep_"+sanitizeName(c.Name),
			"distributed sweep fault-handling counter "+c.Name, c.Value()))
	}
	// Exactly-once with a stable order: sort by family name, drop any
	// later duplicate. Every registry above already names its counters
	// uniquely; this guards combinations (e.g. a standalone histogram
	// colliding with a counter family) so the exposition stays parseable.
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	out := fams[:0]
	for _, f := range fams {
		if len(out) > 0 && out[len(out)-1].name == f.name {
			continue
		}
		out = append(out, f)
	}

	var b strings.Builder
	for _, f := range out {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// counterFamily renders one monotonic counter (sample name carries the
// OpenMetrics-mandated _total suffix).
func counterFamily(name, help string, v uint64) family {
	return family{
		name:    name,
		typ:     "counter",
		help:    help,
		samples: []string{fmt.Sprintf("%s_total %d", name, v)},
	}
}

// histogramFamily renders a histogram snapshot with cumulative buckets,
// the mandatory +Inf bucket, and _sum/_count samples.
func histogramFamily(h *stats.BucketHistogram, help string) family {
	snap := h.Snapshot()
	name := MetricPrefix + sanitizeName(snap.Name)
	samples := make([]string, 0, len(snap.Counts)+2)
	var cum uint64
	for i, c := range snap.Counts {
		cum += c
		le := "+Inf"
		if i < len(snap.Bounds) {
			le = formatFloat(snap.Bounds[i])
		}
		samples = append(samples, fmt.Sprintf("%s_bucket{le=%q} %d", name, le, cum))
	}
	samples = append(samples,
		fmt.Sprintf("%s_count %d", name, snap.Total),
		fmt.Sprintf("%s_sum %s", name, formatFloat(snap.Sum)))
	return family{name: name, typ: "histogram", help: help, samples: samples}
}

// seriesFamily renders a sampler series' most recent sample as a gauge,
// with the simulated timestamp alongside in a companion label-free
// metric would be overkill — the sim time rides as a label instead.
func seriesFamily(s *obs.Series) family {
	name := MetricPrefix + "series_" + sanitizeName(s.Name)
	t, v, ok := s.Last()
	if !ok {
		return family{name: name, typ: "gauge",
			help:    "latest value of sampler series " + s.Name,
			samples: []string{name + " 0"}}
	}
	return family{name: name, typ: "gauge",
		help: "latest value of sampler series " + s.Name,
		samples: []string{fmt.Sprintf("%s{sim_time_us=%q} %s",
			name, formatFloat(t), formatFloat(v))}}
}
