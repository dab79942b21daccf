// NOW study: reproduce the shape of Figures 18 and 19 — how the direct IS
// overhead and monitoring latency respond to the sampling period and the
// batch size on a network of workstations — with replicated runs and 90%
// confidence intervals, using the public API.
package main

import (
	"fmt"
	"log"

	"rocc"
)

func main() {
	fmt.Println("== Sampling-period sweep (8 nodes, CF vs BF batch 32) ==")
	fmt.Printf("%-8s  %-26s  %-26s\n", "SP(ms)", "CF Pd util/node (%)", "BF Pd util/node (%)")
	for _, spMS := range []float64{1, 2, 4, 8, 16, 32, 64} {
		var cells []string
		for _, s := range []rocc.ForwardStrategy{rocc.NewCFStrategy(), rocc.NewFixedBFStrategy(32)} {
			cfg := rocc.DefaultConfig()
			cfg.Duration = 10e6
			cfg.SamplingPeriod = spMS * 1000
			cfg.Strategy = s
			rep, err := rocc.SimulateReplications(cfg, 5)
			if err != nil {
				log.Fatal(err)
			}
			ci := rep.CI(func(r rocc.Result) float64 { return r.PdCPUUtilPct }, 0.90)
			cells = append(cells, fmt.Sprintf("%6.3f ± %.3f", ci.Mean, ci.HalfWidth))
		}
		fmt.Printf("%-8.0f  %-26s  %-26s\n", spMS, cells[0], cells[1])
	}

	fmt.Println("\n== Batch-size sweep (8 nodes, SP = 5 ms): the Figure 19 knee ==")
	fmt.Printf("%-8s  %-22s  %-22s\n", "batch", "Pd util/node (%)", "latency (ms)")
	for _, batch := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		cfg := rocc.DefaultConfig()
		cfg.Duration = 10e6
		cfg.SamplingPeriod = 5000
		if batch > 1 {
			cfg.Strategy = rocc.NewFixedBFStrategy(batch)
		}
		res, err := rocc.Simulate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d  %-22.4f  %-22.2f\n", batch, res.PdCPUUtilPct, res.MonitoringLatencySec*1000)
	}
	fmt.Println("\nOverhead drops super-linearly at small batches, then levels off;")
	fmt.Println("latency grows with batch accumulation — pick the knee (§4.2.4).")
}
