package experiments

import (
	"fmt"
	"io"
	"time"

	"rocc/internal/doe"
	"rocc/internal/forward"
	"rocc/internal/report"
	"rocc/internal/testbed"
)

func init() {
	register("fig30", "Measurement: Pd and main CPU overhead, CF vs BF, two sampling periods", runFig30)
	register("table7", "Measurement: allocation of variation, policy vs sampling period", runTable7)
	register("fig31", "Measurement: normalized CPU occupancy, pvmbt vs pvmis", runFig31)
	register("table8", "Measurement: allocation of variation, policy vs application", runTable8)
	register("ext-cluster", "Measurement: multi-node testbed, direct vs tree over real sockets", runExtCluster)
}

// runExtCluster runs the Figure 29 multi-node setup for real: several
// instrumented application+daemon pairs forwarding to one collector,
// directly and through a binary tree of relays (Figure 4), measuring the
// extra merge work tree forwarding costs on real sockets.
func runExtCluster(w io.Writer, opt Options) error {
	opt = opt.normalized()
	sp := time.Millisecond
	if opt.TestbedDuration >= 10*time.Second {
		sp = 10 * time.Millisecond
	}
	t := report.NewTable("Multi-node testbed: 7 nodes, CF, real TCP",
		"configuration", "avg daemon CPU (sec/node)", "relay merge work (sec)",
		"samples", "mean latency (sec)")
	for _, tree := range []bool{false, true} {
		res, err := testbed.Run(testbed.Config{
			Nodes:          7,
			Kernel:         "is",
			Strategy:       forward.NewCF(),
			SamplingPeriod: sp,
			Duration:       opt.TestbedDuration,
			Seed:           opt.Seed,
			Tree:           tree,
		})
		if err != nil {
			return err
		}
		name := "direct"
		if tree {
			name = "tree"
		}
		t.AddRow(name, report.F(res.MeanDaemonBusySec), report.F(res.TotalRelayBusySec),
			fmt.Sprint(res.Collector.Samples), report.F(res.Collector.MeanLatencySec))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "Tree forwarding adds real relay (merge) work on interior nodes — the §4.4.2 cost, measured.")
	return err
}

// measureCell runs one testbed experiment reps times, with seeds Seed,
// Seed+1, ….
func measureCell(cfg testbed.Config, reps int) ([]testbed.Result, error) {
	var out []testbed.Result
	for i := 0; i < reps; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		res, err := testbed.Run(c)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// allocationPart names one metric of a measured allocation-of-variation
// table.
type allocationPart struct {
	name   string
	metric func(testbed.Result) float64
}

// renderAllocation measures every cell of a 2^2 design opt.Reps times and
// renders, for each part, the fraction of the metric's variation each
// factor explains: Tables 7 and 8.
func renderAllocation(w io.Writer, opt Options, table string, cells []testbed.Config, factors []string, parts []allocationPart) error {
	rows := make([][][]float64, len(parts))
	for _, c := range cells {
		results, err := measureCell(c, opt.Reps)
		if err != nil {
			return err
		}
		for i, part := range parts {
			var reps []float64
			for _, res := range results {
				reps = append(reps, part.metric(res))
			}
			rows[i] = append(rows[i], reps)
		}
	}
	for i, part := range parts {
		an, err := doe.Analyze2KR(factors, rows[i])
		if err != nil {
			return err
		}
		t := report.NewTable(table+": variation explained for "+part.name, "factor", "fraction")
		for _, e := range an.Effects {
			t.AddRow(e.Term, report.Pct(e.Fraction*100))
		}
		t.AddRow("error", report.Pct(an.ErrorFraction*100))
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "factors: %s\n", factorLegend(factors))
	}
	return nil
}

// fig30Design is the 2^2 design of Section 5.2: A = scheduling policy
// (CF/BF), B = sampling period (10/30 ms — scaled to the testbed run
// length so each cell still sees hundreds of samples).
func fig30Design(opt Options) []testbed.Config {
	// Scale sampling periods to the run length: the paper used 10/30 ms
	// over minutes; for sub-second runs use 1/3 ms to keep sample counts
	// statistically useful.
	spLow, spHigh := 10*time.Millisecond, 30*time.Millisecond
	if opt.TestbedDuration < 10*time.Second {
		spLow, spHigh = time.Millisecond, 3*time.Millisecond
	}
	base := testbed.Config{
		Kernel:         "bt",
		Duration:       opt.TestbedDuration,
		PipeCapacity:   256,
		Seed:           opt.Seed,
		SamplingPeriod: spLow,
	}
	var cells []testbed.Config
	for i := 0; i < 4; i++ {
		c := base
		if i>>0&1 == 1 {
			c.Strategy = forward.NewFixedBF(32)
		}
		if i>>1&1 == 1 {
			c.SamplingPeriod = spHigh
		}
		cells = append(cells, c)
	}
	return cells
}

func runFig30(w io.Writer, opt Options) error {
	opt = opt.normalized()
	cells := fig30Design(opt)
	t := report.NewTable("Figure 30: measured IS overhead (real testbed, pvmbt kernel)",
		"policy", "sampling period", "Pd CPU time (sec)", "main CPU time (sec)", "writes", "samples")
	busy := make([]float64, len(cells))
	for i, c := range cells {
		res, err := testbed.Run(c)
		if err != nil {
			return err
		}
		d := res.Nodes[0].Daemon
		busy[i] = d.BusySec
		t.AddRow(policyOf(c), c.SamplingPeriod.String(),
			report.F(d.BusySec), report.F(res.Collector.BusySec),
			fmt.Sprint(d.Writes), fmt.Sprint(res.Collector.Samples))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	// Headline: overhead reduction under BF at the faster sampling period,
	// from the table's own CF and BF rows (cells 0 and 1).
	if busy[0] > 0 {
		red := (1 - busy[1]/busy[0]) * 100
		fmt.Fprintf(w, "BF reduces measured Pd overhead by %.0f%% at the fast sampling period\n", red)
	}
	return nil
}

func runTable7(w io.Writer, opt Options) error {
	opt = opt.normalized()
	return renderAllocation(w, opt, "Table 7", fig30Design(opt),
		[]string{"scheduling policy", "sampling period"},
		[]allocationPart{
			{"Paradyn daemon CPU time", func(r testbed.Result) float64 { return r.Nodes[0].Daemon.BusySec }},
			{"main Paradyn process CPU time", func(r testbed.Result) float64 { return r.Collector.BusySec }},
		})
}

// fig31Design is the 2^2 design of the second measurement set:
// A = scheduling policy, B = application program (pvmbt / pvmis).
func fig31Design(opt Options) []testbed.Config {
	sp := 10 * time.Millisecond
	if opt.TestbedDuration < 10*time.Second {
		sp = time.Millisecond
	}
	base := testbed.Config{
		Duration:       opt.TestbedDuration,
		PipeCapacity:   256,
		Seed:           opt.Seed,
		SamplingPeriod: sp,
		Kernel:         "bt",
	}
	var cells []testbed.Config
	for i := 0; i < 4; i++ {
		c := base
		if i>>0&1 == 1 {
			c.Strategy = forward.NewFixedBF(32)
		}
		if i>>1&1 == 1 {
			c.Kernel = "is"
		}
		cells = append(cells, c)
	}
	return cells
}

func runFig31(w io.Writer, opt Options) error {
	opt = opt.normalized()
	cells := fig31Design(opt)
	t := report.NewTable("Figure 31: normalized CPU occupancy (real testbed, SP = 10 ms class)",
		"application", "policy", "Pd occupancy (%)", "app occupancy (%)", "samples")
	for _, c := range cells {
		res, err := testbed.Run(c)
		if err != nil {
			return err
		}
		t.AddRow(c.Kernel, policyOf(c),
			report.F(res.NormalizedPdPct), report.F(100-res.NormalizedPdPct),
			fmt.Sprint(res.Collector.Samples))
	}
	return t.Render(w)
}

func runTable8(w io.Writer, opt Options) error {
	opt = opt.normalized()
	return renderAllocation(w, opt, "Table 8", fig31Design(opt),
		[]string{"scheduling policy", "application program"},
		[]allocationPart{
			{"Paradyn daemon normalized CPU time", func(r testbed.Result) float64 { return r.NormalizedPdPct }},
			{"main process normalized CPU time", func(r testbed.Result) float64 { return r.NormalizedMainPct }},
		})
}

// policyOf labels a measurement cell's policy column: CF or BF.
func policyOf(c testbed.Config) string {
	p, _ := forward.PolicyOf(c.Strategy)
	return p.String()
}
