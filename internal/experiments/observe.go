package experiments

import (
	"fmt"
	"io"

	"rocc/internal/core"
	"rocc/internal/report"
	"rocc/internal/trace"
)

func init() {
	register("ext-observability", "Extension: in-simulator telemetry — lifecycle counters, latency quantiles, occupancy timeline", runExtObservability)
}

// runExtObservability demonstrates the observability layer the way the
// paper's Section 5 uses AIX traces: one instrumented run, then the
// sample-lifecycle counters, the latency distribution's quantiles, and a
// windowed CPU occupancy timeline recovered purely from the emitted trace.
func runExtObservability(w io.Writer, opt Options) error {
	opt = opt.normalized()
	cfg := core.DefaultConfig()
	cfg.Nodes = 4
	cfg.Duration = opt.DurationUS
	cfg.Seed = opt.Seed
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	c, err := m.EnableObservability(core.ObsOptions{Trace: true, Metrics: true})
	if err != nil {
		return err
	}
	res := m.Run()

	ct := report.NewTable("Sample lifecycle counters (4-node NOW, CF)", "counter", "count")
	for _, cnt := range c.Metrics.Counters() {
		ct.AddRow(cnt.Name, fmt.Sprint(cnt.Value()))
	}
	if err := ct.Render(w); err != nil {
		return err
	}

	qt := report.NewTable("Monitoring latency distribution (sec)", "quantile", "latency")
	qt.AddRow("p50", report.F(res.MonitoringLatencyP50Sec))
	qt.AddRow("p95", report.F(res.MonitoringLatencyP95Sec))
	qt.AddRow("p99", report.F(res.MonitoringLatencyP99Sec))
	qt.AddRow("mean", report.F(res.MonitoringLatencySec))
	qt.AddRow("max", report.F(res.MonitoringLatencyMaxSec))
	if err := qt.Render(w); err != nil {
		return err
	}

	// The timeline below comes from the exported trace records alone —
	// the same pipeline rocctrace applies to measured AIX traces.
	recs := c.Sink.TraceRecords()
	const windows = 10
	classes, mids, shares, err := trace.Timeline(recs, trace.CPU, windows)
	if err != nil {
		return err
	}
	fig := report.NewFigure(
		fmt.Sprintf("CPU occupancy share per %.2f-s window (from the run's own trace)", 2*mids[0]),
		"t_sec", "share", mids)
	for i, class := range classes {
		if err := fig.Add(class, shares[i]); err != nil {
			return err
		}
	}
	if opt.CSV {
		return fig.RenderCSV(w)
	}
	return fig.Render(w)
}
