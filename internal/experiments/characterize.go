package experiments

import (
	"fmt"
	"io"

	"rocc/internal/core"
	"rocc/internal/forward"
	"rocc/internal/report"
	"rocc/internal/rng"
	"rocc/internal/stats"
	"rocc/internal/trace"
	"rocc/internal/workload"
)

func init() {
	register("table1", "Summary statistics of pvmbt trace on an SP-2 (CPU/network occupancy by process type)", runTable1)
	register("fig8", "Histograms, fitted pdfs, and Q-Q plots of application CPU and network requests", runFig8)
	register("table2", "ROCC model parameters fitted from the trace", runTable2)
	register("table3", "Validation: measured vs simulated CPU time (NAS pvmbt, one node)", runTable3)
}

// characterizedTrace generates the synthetic AIX trace and characterizes
// it; shared by the Table 1/2, Figure 8, and Table 3 experiments.
func characterizedTrace(opt Options) (*workload.Characterization, []trace.Record, error) {
	recs, err := trace.Generate(trace.GenConfig{
		Seed:             opt.Seed,
		DurationUS:       opt.DurationUS * 10, // characterization wants many requests
		SamplingPeriodUS: 40000,
		IncludeMainTrace: true,
	})
	if err != nil {
		return nil, nil, err
	}
	c, err := workload.Characterize(recs)
	if err != nil {
		return nil, nil, err
	}
	return c, recs, nil
}

func runTable1(w io.Writer, opt Options) error {
	opt = opt.normalized()
	c, _, err := characterizedTrace(opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Table 1: occupancy statistics (microseconds)",
		"process", "resource", "n", "mean", "sd", "min", "max")
	for _, class := range c.Classes() {
		for _, res := range []trace.Resource{trace.CPU, trace.Network} {
			s, ok := c.Stats[workload.ClassResource{Class: class, Resource: res}]
			if !ok {
				continue
			}
			t.AddRow(class, res.String(), fmt.Sprint(s.N),
				report.F(s.Mean), report.F(s.SD), report.F(s.Min), report.F(s.Max))
		}
	}
	return t.Render(w)
}

func runFig8(w io.Writer, opt Options) error {
	opt = opt.normalized()
	c, _, err := characterizedTrace(opt)
	if err != nil {
		return err
	}
	parts := []struct {
		label string
		key   workload.ClassResource
	}{
		{"(a) CPU occupancy requests", workload.ClassResource{Class: trace.ProcApplication, Resource: trace.CPU}},
		{"(b) network occupancy requests", workload.ClassResource{Class: trace.ProcApplication, Resource: trace.Network}},
	}
	for _, part := range parts {
		xs := c.Samples[part.key]
		fit := c.Fits[part.key]
		// Histogram limited to the bulk of the data, as in the figure.
		q95, err := stats.Quantile(xs, 0.95)
		if err != nil {
			return err
		}
		hist, err := stats.NewHistogram(xs, 0, q95, 16)
		if err != nil {
			return err
		}
		centers := hist.BinCenters()
		fig := report.NewFigure("Figure 8"+part.label, "length_us", "relative frequency / density", centers)
		if err := fig.Add("observed", hist.RelativeFrequencies()); err != nil {
			return err
		}
		for _, cand := range fit.Candidates {
			ys := make([]float64, len(centers))
			for i, x := range centers {
				ys[i] = cand.Dist.PDF(x)
			}
			if err := fig.Add(cand.Dist.Name()+"_pdf", ys); err != nil {
				return err
			}
		}
		if err := renderFigure(w, opt, fig); err != nil {
			return err
		}
		// Q-Q plot of the best-fitting distribution, subsampled.
		qq, err := stats.QQSeries(xs, fit.Best.Dist.InvCDF)
		if err != nil {
			return err
		}
		const points = 20
		xsQ := make([]float64, 0, points)
		obs := make([]float64, 0, points)
		for i := 0; i < points; i++ {
			idx := i * (len(qq) - 1) / (points - 1)
			xsQ = append(xsQ, qq[idx].Theoretical)
			obs = append(obs, qq[idx].Observed)
		}
		qfig := report.NewFigure(
			fmt.Sprintf("Figure 8%s Q-Q vs %s (r=%.4f)", part.label, fit.Best.Dist.Name(), fit.Best.QQvsR),
			fit.Best.Dist.Name()+"_quantile", "observed quantile", xsQ)
		if err := qfig.Add("observed", obs); err != nil {
			return err
		}
		if err := qfig.Add("ideal", xsQ); err != nil {
			return err
		}
		if err := renderFigure(w, opt, qfig); err != nil {
			return err
		}
	}
	return nil
}

func runTable2(w io.Writer, opt Options) error {
	opt = opt.normalized()
	c, _, err := characterizedTrace(opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Table 2: fitted ROCC model parameters",
		"parameter", "fitted distribution", "KS stat")
	name := map[string]string{
		trace.ProcApplication: "Application process",
		trace.ProcPd:          "Paradyn daemon",
		trace.ProcPvmd:        "PVM daemon",
		trace.ProcOther:       "Other processes",
		trace.ProcParadyn:     "Main Paradyn process",
	}
	// The rows print what Workload hands a run: a fitted distribution, or
	// the Table 2 default it falls back to when the trace has too few
	// requests to fit, marked in the last column so that the fitted rows
	// keep their widths. The Paradyn daemon's rows are fitted for
	// reference; a run takes the daemon's costs from its Config.
	const fallback = "(Table 2 default: too few requests in trace)"
	wl := c.Workload()
	used := map[workload.ClassResource]rng.Dist{
		{Class: trace.ProcApplication, Resource: trace.CPU}:     wl.AppCPU,
		{Class: trace.ProcApplication, Resource: trace.Network}: wl.AppNet,
		{Class: trace.ProcPvmd, Resource: trace.CPU}:            wl.PvmCPU,
		{Class: trace.ProcPvmd, Resource: trace.Network}:        wl.PvmNet,
		{Class: trace.ProcOther, Resource: trace.CPU}:           wl.OtherCPU,
		{Class: trace.ProcOther, Resource: trace.Network}:       wl.OtherNet,
		{Class: trace.ProcParadyn, Resource: trace.CPU}:         wl.MainCPU,
	}
	for _, class := range c.Classes() {
		for _, res := range []trace.Resource{trace.CPU, trace.Network} {
			key := workload.ClassResource{Class: class, Resource: res}
			label := fmt.Sprintf("%s: length of %s request", name[class], res)
			if fit, ok := c.Fits[key]; ok {
				t.AddRow(label, fit.Best.Dist.String(), report.F(fit.Best.KS))
			} else if d, ok := used[key]; ok {
				t.AddRow(label, d.String(), fallback)
			}
		}
	}
	t.AddRow("Paradyn daemon: inter-arrival (sampling period)",
		fmt.Sprintf("exponential(%s)", report.F(c.SamplingPeriod())), "")
	for _, ia := range []struct {
		label string
		key   workload.ClassResource
		used  rng.Dist
	}{
		{"PVM daemon: inter-arrival", workload.ClassResource{Class: trace.ProcPvmd, Resource: trace.CPU}, wl.PvmInterarrival},
		{"Other: inter-arrival of CPU requests", workload.ClassResource{Class: trace.ProcOther, Resource: trace.CPU}, wl.OtherCPUInterarrival},
		{"Other: inter-arrival of network requests", workload.ClassResource{Class: trace.ProcOther, Resource: trace.Network}, wl.OtherNetInterarrival},
	} {
		if m := c.Interarrival[ia.key]; m > 0 {
			t.AddRow(ia.label, fmt.Sprintf("exponential(%s)", report.F(m)), "")
		} else {
			t.AddRow(ia.label, ia.used.String(), fallback)
		}
	}
	return t.Render(w)
}

func runTable3(w io.Writer, opt Options) error {
	opt = opt.normalized()
	// "Measurement": the synthetic AIX trace of one instrumented node
	// (standing in for the SP-2 measurement, see DESIGN.md).
	dur := opt.DurationUS * 10
	recs, err := trace.Generate(trace.GenConfig{
		Seed: opt.Seed, DurationUS: dur, SamplingPeriodUS: 40000,
	})
	if err != nil {
		return err
	}
	c, err := workload.Characterize(recs)
	if err != nil {
		return err
	}

	// Simulation of the same case: one node, one app process, CF, 40 ms.
	cfg := core.DefaultConfig()
	cfg.Nodes = 1
	cfg.SamplingPeriod = 40000
	cfg.Strategy = forward.NewCF()
	cfg.Duration = dur
	cfg.Seed = opt.Seed
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	res := m.Run()

	t := report.NewTable(
		fmt.Sprintf("Table 3: measured vs simulated CPU time over %.0f s", dur/1e6),
		"type of experiment", "application CPU time (sec)", "Pd CPU time (sec)")
	t.AddRow("Measurement based (trace)",
		report.F(c.CPUSeconds(trace.ProcApplication)), report.F(c.CPUSeconds(trace.ProcPd)))
	t.AddRow("Simulation model based",
		report.F(res.AppCPUTimePerNodeSec), report.F(res.PdCPUTimePerNodeSec))
	// The paper's own measurement of this case (§4, Table 3): one SP-2
	// node over a 100 s run.
	t.AddRow("Paper: SP-2 measurement (100 s)", "85.71", "0.74")
	return t.Render(w)
}

// renderFigure renders per the CSV/Plot options.
func renderFigure(w io.Writer, opt Options, f *report.Figure) error {
	if opt.CSV {
		if _, err := fmt.Fprintf(w, "# %s\n", f.Title); err != nil {
			return err
		}
		if err := f.RenderCSV(w); err != nil {
			return err
		}
	} else if err := f.Render(w); err != nil {
		return err
	}
	if opt.Plot {
		return f.Plot(w, report.PlotOptions{})
	}
	return nil
}
