// Command roccviz renders an instrumented simulation run as telemetry
// reports: sample-lifecycle counters, monitoring-latency quantiles, a
// windowed CPU occupancy timeline, and the periodic sampler series. It
// also exports and validates Chrome trace-event JSON (the Perfetto /
// chrome://tracing format), which is what the CI smoke step checks.
//
// With -lat it renders the latency waterfall of an exported trace with no
// re-simulation: obs.ReplayChrome feeds the trace's sample paths through
// a fresh provenance engine (prov.Engine, the one a live run uses), so
// its rows, quantiles included, equal the waterfall roccsim -stages
// printed for the same run.
//
// Examples:
//
//	roccviz -nodes 8 -sp 40
//	roccviz -nodes 8 -windows 20 -series
//	roccviz -nodes 4 -export run.json      # Chrome trace for Perfetto
//	roccviz -check run.json                # validate an exported trace
//	roccviz -check sweep-timeline.json     # roccsweep -trace output validates too
//	roccviz -lat run.json                  # latency waterfall from an exported trace
//	roccviz -nodes 8 -http :0              # live /metrics + pprof during the run
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rocc/internal/cli"
	"rocc/internal/core"
	"rocc/internal/forward"
	"rocc/internal/obs"
	"rocc/internal/obs/live"
	"rocc/internal/obs/prov"
	"rocc/internal/report"
	"rocc/internal/trace"
)

func main() {
	var (
		arch    = flag.String("arch", "now", "architecture: now, smp, mpp")
		nodes   = flag.Int("nodes", 8, "number of nodes (CPUs for SMP)")
		spMS    = flag.Float64("sp", 40, "sampling period in milliseconds")
		policy  = cli.Policy(flag.CommandLine, 32)
		dur     = flag.Float64("duration", 10, "simulated seconds")
		seed    = flag.Uint64("seed", 1, "random seed")
		windows = flag.Int("windows", 10, "occupancy timeline windows")
		series  = flag.Bool("series", false, "also print the periodic sampler series")
		csv     = flag.Bool("csv", false, "emit figures as CSV")
		export  = flag.String("export", "", "write the run's Chrome trace JSON to this file")
		check   = flag.String("check", "", "validate a Chrome trace JSON file and exit")
		lat     = flag.String("lat", "", "reconstruct the latency-decomposition waterfall from a Chrome trace JSON file and exit")
		http    = cli.HTTP(flag.CommandLine)
	)
	flag.Parse()

	if *lat != "" {
		if err := runLat(*lat); err != nil {
			fatal("%v", err)
		}
		return
	}

	if *check != "" {
		f, err := os.Open(*check)
		if err != nil {
			fatal("%v", err)
		}
		n, err := obs.ValidateChrome(f)
		f.Close()
		if err != nil {
			fatal("%s: %v", *check, err)
		}
		fmt.Printf("%s: valid Chrome trace, %d events\n", *check, n)
		return
	}

	if *windows < 1 {
		fatal("-windows must be at least 1, got %d", *windows)
	}

	cfg := core.DefaultConfig()
	switch strings.ToLower(*arch) {
	case "now":
		cfg.Arch = core.NOW
	case "smp":
		cfg.Arch = core.SMP
	case "mpp":
		cfg.Arch = core.MPP
	default:
		fatal("unknown architecture %q", *arch)
	}
	cfg.Nodes = *nodes
	cfg.SamplingPeriod = *spMS * 1000
	if s := policy.Strategy(); s != nil {
		cfg.Strategy = s
	}
	cfg.Duration = *dur * 1e6
	cfg.Seed = *seed

	m, err := core.New(cfg)
	if err != nil {
		fatal("%v", err)
	}
	c, err := m.EnableObservability(core.ObsOptions{Trace: true, Metrics: true, Provenance: true})
	if err != nil {
		fatal("%v", err)
	}
	if *http != "" {
		srv := live.NewServer(nil)
		srv.Exporter().SetRun(c.Metrics)
		if eng := m.Provenance(); eng != nil {
			for st := prov.Stage(0); st < prov.NumStages; st++ {
				srv.Exporter().AddHistogram(eng.Histogram(st),
					"per-sample dwell in stage "+st.String())
			}
		}
		addr, err := srv.Start(*http)
		if err != nil {
			fatal("%v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "roccviz: monitoring on http://%s (/metrics /healthz /debug/pprof/)\n", addr)
	}
	res := m.Run()

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fatal("%v", err)
		}
		if err := c.Sink.WriteChrome(f); err != nil {
			f.Close()
			fatal("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote Chrome trace (%d spans + %d events) to %s\n",
			len(c.Sink.Spans()), len(c.Sink.Events()), *export)
	}

	policyName := cfg.Strategy.String()
	if p, batch := forward.PolicyOf(cfg.Strategy); batch > 0 {
		policyName = p.String()
	}
	ct := report.NewTable(
		fmt.Sprintf("Telemetry: %s, %d nodes, SP=%.1f ms, %s", cfg.Arch, cfg.Nodes, cfg.SamplingPeriod/1000, policyName),
		"counter", "count")
	for _, cnt := range c.Metrics.Counters() {
		ct.AddRow(cnt.Name, fmt.Sprint(cnt.Value()))
	}
	if err := ct.Render(os.Stdout); err != nil {
		fatal("%v", err)
	}

	qt := report.NewTable("Monitoring latency (sec)", "stat", "value")
	qt.AddRow("p50", report.F(res.MonitoringLatencyP50Sec))
	qt.AddRow("p95", report.F(res.MonitoringLatencyP95Sec))
	qt.AddRow("p99", report.F(res.MonitoringLatencyP99Sec))
	qt.AddRow("mean", report.F(res.MonitoringLatencySec))
	qt.AddRow("max", report.F(res.MonitoringLatencyMaxSec))
	if err := qt.Render(os.Stdout); err != nil {
		fatal("%v", err)
	}

	if len(res.LatencyStages) > 0 {
		wf := report.Waterfall{Title: "latency decomposition (per-stage dwell)", Rows: core.StageRows(res.LatencyStages)}
		if err := wf.Render(os.Stdout); err != nil {
			fatal("%v", err)
		}
	}

	if err := renderTimeline(c, *windows, *csv); err != nil {
		fatal("%v", err)
	}

	if *series {
		if err := renderSeries(c, *csv); err != nil {
			fatal("%v", err)
		}
	}
}

// renderTimeline recovers the occupancy timeline from the run's own trace
// records — the same analysis rocctrace applies to measured traces.
func renderTimeline(c *obs.Collector, windows int, csv bool) error {
	recs := c.Sink.TraceRecords()
	if len(recs) == 0 {
		fmt.Println("(no occupancy records: timeline skipped)")
		return nil
	}
	classes, mids, shares, err := trace.Timeline(recs, trace.CPU, windows)
	if err != nil {
		return err
	}
	fig := report.NewFigure(
		fmt.Sprintf("CPU occupancy share per %.3f-s window", 2*mids[0]),
		"t_sec", "share", mids)
	for i, class := range classes {
		if err := fig.Add(class, shares[i]); err != nil {
			return err
		}
	}
	if csv {
		return fig.RenderCSV(os.Stdout)
	}
	return fig.Render(os.Stdout)
}

// renderSeries prints each periodic sampler series as a figure grouped by
// shared timestamps (all probes tick together, so one x-axis serves all).
func renderSeries(c *obs.Collector, csv bool) error {
	all := c.Metrics.Series()
	if len(all) == 0 || len(all[0].T) == 0 {
		fmt.Println("(no sampler series recorded)")
		return nil
	}
	xs := make([]float64, len(all[0].T))
	for i, t := range all[0].T {
		xs[i] = t / 1e6
	}
	fig := report.NewFigure("Periodic sampler series", "t_sec", "value", xs)
	for _, s := range all {
		if len(s.V) != len(xs) {
			continue // defensive: mismatched probe, skip rather than abort
		}
		if err := fig.Add(s.Name, s.V); err != nil {
			return err
		}
	}
	if csv {
		return fig.RenderCSV(os.Stdout)
	}
	return fig.Render(os.Stdout)
}

// runLat is the -lat entry point: replay the trace through the provenance
// engine and render the engine's waterfall.
func runLat(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	eng, incomplete, err := obs.ReplayChrome(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if eng.Delivered() == 0 {
		return fmt.Errorf("%s: no decomposable delivered samples in trace", path)
	}
	wf := report.Waterfall{
		Title: fmt.Sprintf("latency decomposition replayed from %s", path),
		Rows:  core.StageRows(core.StageLatencies(eng)),
	}
	if err := wf.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("%d delivered samples decomposed (%d lost, %d duplicate deliveries, %d incomplete); max closure error %.3g us\n",
		eng.Delivered(), eng.LostTotal(), eng.DupDelivered(), incomplete, eng.MaxCloseErrUS())
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "roccviz: "+format+"\n", args...)
	os.Exit(1)
}
