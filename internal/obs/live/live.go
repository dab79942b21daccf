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
//     flag of roccsweep, roccsim, and roccviz: /metrics (OpenMetrics),
//     /healthz (liveness JSON), /progress (a caller-supplied JSON
//     snapshot, e.g. dist.Progress), and net/http/pprof under
//     /debug/pprof/.
//
// Nothing here touches simulation state: the exporter only reads, and a
// binary that never passes -http pays nothing — no listener, no
// goroutine, no allocation.
package live

import (
	"io"
	"slices"
	"strconv"
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

// family is one metric family ready to render: its name, TYPE and HELP
// lines and the values of its samples, read from the source when the
// render starts. typ selects which of the value fields is used.
type family struct {
	name string // full name, prefix included
	typ  string // counter, gauge, histogram
	// HELP text, written as help+helpArg (no HELP line when both are
	// empty); the split saves a concatenation per family.
	help, helpArg string

	count uint64               // counter: its value
	snap  stats.BucketSnapshot // histogram: its snapshot
	// gauge: the series' latest sample at simulated time t, when ok.
	t, v float64
	ok   bool
}

// WriteOpenMetrics renders every attached source in the OpenMetrics text
// exposition format: families sorted by name, each exactly once (the
// first registration wins on a name collision), terminated by the
// mandatory "# EOF" line. The text is appended into one byte slice,
// sized up front to hold it, and written with a single Write.
func (e *Exporter) WriteOpenMetrics(w io.Writer) error {
	e.mu.Lock()
	run, sweep := e.run, e.sweep
	hists := append([]histSource(nil), e.hists...)
	e.mu.Unlock()

	var fams []family
	if run != nil {
		counters := run.Counters()
		series := run.Series()
		fams = make([]family, 0, len(counters)+1+len(series)+len(hists)+len(sweep))
		for _, c := range counters {
			fams = append(fams, family{name: metricName(MetricPrefix, c.Name), typ: "counter",
				help: "simulation pipeline counter ", helpArg: c.Name, count: c.Value()})
		}
		fams = append(fams, histogramFamily(run.Latency, "sample delivery latency distribution"))
		for _, s := range series {
			f := family{name: metricName(MetricPrefix+"series_", s.Name), typ: "gauge",
				help: "latest value of sampler series ", helpArg: s.Name}
			f.t, f.v, f.ok = s.Last()
			fams = append(fams, f)
		}
	}
	for _, hs := range hists {
		fams = append(fams, histogramFamily(hs.h, hs.help))
	}
	for _, c := range sweep {
		fams = append(fams, family{name: metricName(MetricPrefix+"sweep_", c.Name), typ: "counter",
			help: "distributed sweep fault-handling counter ", helpArg: c.Name, count: c.Value()})
	}
	// Exactly-once with a stable order: sort by family name, drop any
	// later duplicate. Every registry above already names its counters
	// uniquely; this guards combinations (e.g. a standalone histogram
	// colliding with a counter family) so the exposition stays parseable.
	order := make([]*family, len(fams))
	size := len("# EOF\n")
	for i := range fams {
		order[i] = &fams[i]
		size += fams[i].maxLen()
	}
	slices.SortStableFunc(order, func(a, b *family) int { return strings.Compare(a.name, b.name) })

	b := make([]byte, 0, size)
	var les leLabels
	for i, f := range order {
		if i > 0 && order[i-1].name == f.name {
			continue
		}
		if f.help != "" || f.helpArg != "" {
			b = appendStrings(b, "# HELP ", f.name, " ", f.help, f.helpArg, "\n")
		}
		b = appendStrings(b, "# TYPE ", f.name, " ", f.typ, "\n")
		switch f.typ {
		case "counter":
			b = appendStrings(b, f.name, "_total ")
			b = append(strconv.AppendUint(b, f.count, 10), '\n')
		case "histogram":
			b = appendHistogram(b, f.name, &f.snap, les.of(f.snap.Bounds))
		case "gauge":
			// A sampler series shows its latest value, labeled with that
			// sample's simulated time; before its first sample it reads 0.
			b = append(b, f.name...)
			if f.ok {
				b = appendFloat(append(b, `{sim_time_us="`...), f.t)
				b = appendFloat(append(b, `"} `...), f.v)
			} else {
				b = append(b, " 0"...)
			}
			b = append(b, '\n')
		}
	}
	b = append(b, "# EOF\n"...)
	_, err := w.Write(b)
	return err
}

// appendStrings appends each of ss to b.
func appendStrings(b []byte, ss ...string) []byte {
	for _, s := range ss {
		b = append(b, s...)
	}
	return b
}

// Widest renderings of a number: a float in shortest form
// ("-1.2345678901234567e-308") and a uint64 in decimal.
const (
	maxFloatLen = 24
	maxUintLen  = 20
)

// maxLen bounds the bytes the family renders to, so the render's buffer
// never grows.
func (f *family) maxLen() int {
	n := len("# HELP  \n") + len(f.name) + len(f.help) + len(f.helpArg) +
		len("# TYPE  \n") + len(f.name) + len(f.typ)
	switch f.typ {
	case "counter":
		n += len(f.name) + len("_total \n") + maxUintLen
	case "histogram":
		// No cumulative bucket count has more digits than the total.
		total := len(strconv.AppendUint(make([]byte, 0, maxUintLen), f.snap.Total, 10))
		n += len(f.snap.Counts) * (len(f.name) + len(`_bucket{le=""} `+"\n") + maxFloatLen + total)
		n += len(f.name) + len("_count \n") + maxUintLen + len(f.name) + len("_sum \n") + maxFloatLen
	case "gauge":
		n += len(f.name) + len(`{sim_time_us=""} `+"\n") + 2*maxFloatLen
	}
	return n
}

// leLabels holds the formatted le label values of one list of bucket
// bounds. Histograms over the same bounds, like the six stage
// histograms, render one after another, so each distinct list is
// formatted once per render.
type leLabels struct {
	bounds []float64
	text   []byte // the formatted bounds, back to back
	ends   []int  // bound i's text is text[ends[i-1]:ends[i]]
}

// of returns the labels of bounds, formatting them unless they are the
// bounds formatted last.
func (l *leLabels) of(bounds []float64) *leLabels {
	if l.ends != nil && slices.Equal(l.bounds, bounds) {
		return l
	}
	l.bounds = bounds
	l.text = slices.Grow(l.text[:0], len(bounds)*maxFloatLen)
	l.ends = slices.Grow(l.ends[:0], len(bounds))
	for _, v := range bounds {
		l.text = appendFloat(l.text, v)
		l.ends = append(l.ends, len(l.text))
	}
	return l
}

// label returns bound i's formatted text.
func (l *leLabels) label(i int) []byte {
	start := 0
	if i > 0 {
		start = l.ends[i-1]
	}
	return l.text[start:l.ends[i]]
}

// histogramFamily snapshots a histogram for rendering.
func histogramFamily(h *stats.BucketHistogram, help string) family {
	snap := h.Snapshot()
	return family{name: metricName(MetricPrefix, snap.Name), typ: "histogram", help: help, snap: snap}
}

// appendHistogram renders a histogram snapshot's samples: cumulative
// buckets, the mandatory +Inf bucket, then _count and _sum. les holds
// the snapshot's formatted bounds.
func appendHistogram(b []byte, name string, snap *stats.BucketSnapshot, les *leLabels) []byte {
	var cum uint64
	for i, c := range snap.Counts {
		cum += c
		b = appendStrings(b, name, `_bucket{le="`)
		if i < len(snap.Bounds) {
			b = append(b, les.label(i)...)
		} else {
			b = append(b, "+Inf"...)
		}
		b = append(strconv.AppendUint(append(b, `"} `...), cum, 10), '\n')
	}
	b = append(strconv.AppendUint(appendStrings(b, name, "_count "), snap.Total, 10), '\n')
	b = append(appendFloat(appendStrings(b, name, "_sum "), snap.Sum), '\n')
	return b
}
