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
		res, err := testbed.RunCluster(testbed.ClusterConfig{
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

// measureCell runs one testbed experiment r times and returns the daemon
// and collector overhead replicates in seconds.
func measureCell(cfg testbed.ExpConfig, reps int) (pd, main []float64, err error) {
	for i := 0; i < reps; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		res, err := testbed.Run(c)
		if err != nil {
			return nil, nil, err
		}
		pd = append(pd, res.Daemon.BusySec)
		main = append(main, res.Collector.BusySec)
	}
	return pd, main, nil
}

// fig30Design is the 2^2 design of Section 5.2: A = scheduling policy
// (CF/BF), B = sampling period (10/30 ms — scaled to the testbed run
// length so each cell still sees hundreds of samples).
func fig30Design(opt Options) []testbed.ExpConfig {
	// Scale sampling periods to the run length: the paper used 10/30 ms
	// over minutes; for sub-second runs use 1/3 ms to keep sample counts
	// statistically useful.
	spLow, spHigh := 10*time.Millisecond, 30*time.Millisecond
	if opt.TestbedDuration < 10*time.Second {
		spLow, spHigh = time.Millisecond, 3*time.Millisecond
	}
	base := testbed.ExpConfig{
		Kernel:         "bt",
		Duration:       opt.TestbedDuration,
		PipeCapacity:   256,
		Seed:           opt.Seed,
		SamplingPeriod: spLow,
	}
	var cells []testbed.ExpConfig
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
		busy[i] = res.Daemon.BusySec
		t.AddRow(policyOf(c), c.SamplingPeriod.String(),
			report.F(res.Daemon.BusySec), report.F(res.Collector.BusySec),
			fmt.Sprint(res.Daemon.Writes), fmt.Sprint(res.Collector.Samples))
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
	cells := fig30Design(opt)
	var pdRows, mainRows [][]float64
	for _, c := range cells {
		pd, main, err := measureCell(c, opt.Reps)
		if err != nil {
			return err
		}
		pdRows = append(pdRows, pd)
		mainRows = append(mainRows, main)
	}
	factors := []string{"scheduling policy", "sampling period"}
	for _, part := range []struct {
		name string
		data [][]float64
	}{
		{"Paradyn daemon CPU time", pdRows},
		{"main Paradyn process CPU time", mainRows},
	} {
		an, err := doe.Analyze2KR(factors, part.data)
		if err != nil {
			return err
		}
		t := report.NewTable("Table 7: variation explained for "+part.name, "factor", "fraction")
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

// fig31Design is the 2^2 design of the second measurement set:
// A = scheduling policy, B = application program (pvmbt / pvmis).
func fig31Design(opt Options) []testbed.ExpConfig {
	sp := 10 * time.Millisecond
	if opt.TestbedDuration < 10*time.Second {
		sp = time.Millisecond
	}
	base := testbed.ExpConfig{
		Duration:       opt.TestbedDuration,
		PipeCapacity:   256,
		Seed:           opt.Seed,
		SamplingPeriod: sp,
		Kernel:         "bt",
	}
	var cells []testbed.ExpConfig
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
	cells := fig31Design(opt)
	var pdRows, mainRows [][]float64
	for _, c := range cells {
		var pd, main []float64
		for i := 0; i < opt.Reps; i++ {
			cc := c
			cc.Seed = c.Seed + uint64(i)
			res, err := testbed.Run(cc)
			if err != nil {
				return err
			}
			pd = append(pd, res.NormalizedPdPct)
			main = append(main, res.NormalizedMainPct)
		}
		pdRows = append(pdRows, pd)
		mainRows = append(mainRows, main)
	}
	factors := []string{"scheduling policy", "application program"}
	for _, part := range []struct {
		name string
		data [][]float64
	}{
		{"Paradyn daemon normalized CPU time", pdRows},
		{"main process normalized CPU time", mainRows},
	} {
		an, err := doe.Analyze2KR(factors, part.data)
		if err != nil {
			return err
		}
		t := report.NewTable("Table 8: variation explained for "+part.name, "factor", "fraction")
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

// policyOf labels a measurement cell's policy column: CF or BF.
func policyOf(c testbed.ExpConfig) string {
	p, _ := forward.PolicyOf(c.Strategy)
	return p.String()
}
