package experiments

import (
	"io"
	"time"

	"rocc/internal/core"
	"rocc/internal/des"
	"rocc/internal/forward"
	"rocc/internal/report"
	"rocc/internal/rng"
	"rocc/internal/trace"
	"rocc/internal/workload"
)

func init() {
	register("ablation-pipecap", "Ablation: pipe capacity vs application blocking (§4.3.3 mechanism)", runAblationPipeCap)
	register("ablation-quantum", "Ablation: CPU scheduling quantum sensitivity", runAblationQuantum)
	register("ablation-eventqueue", "Ablation: heap vs calendar-queue event calendar", runAblationEventQueue)
	register("ablation-netcontention", "Ablation: contended vs contention-free MPP network", runAblationNetContention)
	register("ablation-fitting", "Ablation: fitted distributions vs trace-driven (empirical) workload", runAblationFitting)
}

// runAblationFitting quantifies the §2.3.2 fitting step: simulate under
// the fitted Table 2 distributions and under a trace-driven workload that
// resamples the raw observations, and compare the headline metrics.
func runAblationFitting(w io.Writer, opt Options) error {
	opt = opt.normalized()
	recs, err := trace.Generate(trace.GenConfig{
		Seed:             opt.Seed,
		DurationUS:       opt.DurationUS * 5,
		SamplingPeriodUS: 40000,
		IncludeMainTrace: true,
	})
	if err != nil {
		return err
	}
	c, err := workload.Characterize(recs)
	if err != nil {
		return err
	}
	clustered, err := c.ClusteredWorkload(8)
	if err != nil {
		return err
	}
	t := report.NewTable("Workload-fitting ablation (2-node NOW, 40 ms sampling, CF)",
		"workload", "Pd CPU util (%)", "app CPU util (%)", "latency (sec)", "throughput (/sec)")
	for _, mode := range []struct {
		name string
		wl   core.Workload
	}{
		{"fitted (Table 2 pipeline)", c.Workload()},
		{"trace-driven (empirical)", c.EmpiricalWorkload()},
		{"clustered (Hughes [13], k=8)", clustered},
	} {
		cfg := core.DefaultConfig()
		cfg.Nodes = 2
		cfg.Workload = mode.wl
		res, err := runOne(cfg, opt)
		if err != nil {
			return err
		}
		t.AddRow(mode.name, report.F(res.PdCPUUtilPct), report.F(res.AppCPUUtilPct),
			report.F(res.MonitoringLatencySec), report.F(res.ThroughputPerSec))
	}
	return t.Render(w)
}

func runAblationPipeCap(w io.Writer, opt Options) error {
	opt = opt.normalized()
	caps := []float64{2, 4, 8, 16, 64, 256}
	t := report.NewTable("Pipe capacity ablation (1 node, SP = 1 ms, CF)",
		"pipe capacity", "blocked puts", "samples generated", "app CPU util (%)", "latency (sec)")
	for _, c := range caps {
		cfg := core.DefaultConfig()
		cfg.Nodes = 1
		cfg.SamplingPeriod = 1000
		cfg.PipeCapacity = int(c)
		res, err := runOne(cfg, opt)
		if err != nil {
			return err
		}
		t.AddFloats(report.F(c),
			float64(res.BlockedPuts), float64(res.SamplesGenerated),
			res.AppCPUUtilPct, res.MonitoringLatencySec)
	}
	return t.Render(w)
}

func runAblationQuantum(w io.Writer, opt Options) error {
	opt = opt.normalized()
	quanta := []float64{1000, 5000, 10000, 20000, 50000}
	t := report.NewTable("Scheduling-quantum ablation (8 nodes, SP = 5 ms, CF)",
		"quantum (us)", "Pd CPU util (%)", "app CPU util (%)", "latency (sec)")
	for _, q := range quanta {
		cfg := core.DefaultConfig()
		cfg.SamplingPeriod = 5000
		cfg.Quantum = q
		res, err := runOne(cfg, opt)
		if err != nil {
			return err
		}
		t.AddFloats(report.F(q), res.PdCPUUtilPct, res.AppCPUUtilPct, res.MonitoringLatencySec)
	}
	return t.Render(w)
}

func runAblationEventQueue(w io.Writer, opt Options) error {
	opt = opt.normalized()
	// Same self-rescheduling event population on both calendars; report
	// wall time per dispatched event.
	t := report.NewTable("Event-calendar ablation (1000 concurrent timers, 200k dispatches)",
		"calendar", "wall time", "ns/event")
	for _, cal := range []struct {
		name string
		mk   func() des.Calendar
	}{
		{"binary heap", func() des.Calendar { return des.NewHeapCalendar() }},
		{"calendar queue", func() des.Calendar { return des.NewBucketCalendar() }},
	} {
		sim := des.NewWithCalendar(cal.mk())
		r := rng.New(opt.Seed)
		for i := 0; i < 1000; i++ {
			var rec func()
			rec = func() { sim.Schedule(r.Exp(100), rec) }
			sim.Schedule(r.Exp(100), rec)
		}
		const dispatches = 200000
		start := time.Now()
		for i := 0; i < dispatches; i++ {
			sim.Step()
		}
		elapsed := time.Since(start)
		t.AddRow(cal.name, elapsed.String(),
			report.F(float64(elapsed.Nanoseconds())/dispatches))
	}
	return t.Render(w)
}

func runAblationNetContention(w io.Writer, opt Options) error {
	opt = opt.normalized()
	t := report.NewTable("Network-contention ablation (MPP, 32 nodes, SP = 5 ms, CF)",
		"network", "Pd CPU util (%)", "app CPU util (%)", "net util (%)", "latency (sec)")
	for _, mode := range []struct {
		name string
		c    core.Contention
	}{
		{"contention-free (paper §4.4)", core.ContentionOff},
		{"single shared channel", core.ContentionOn},
	} {
		cfg := core.DefaultConfig()
		cfg.Arch = core.MPP
		cfg.Nodes = 32
		cfg.SamplingPeriod = 5000
		cfg.Network = mode.c
		cfg.Forwarding = forward.Direct
		res, err := runOne(cfg, opt)
		if err != nil {
			return err
		}
		t.AddRow(mode.name, report.F(res.PdCPUUtilPct), report.F(res.AppCPUUtilPct),
			report.F(res.NetUtilPct), report.F(res.MonitoringLatencySec))
	}
	return t.Render(w)
}
