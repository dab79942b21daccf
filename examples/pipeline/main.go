// Pipeline example: the paper's methodology loop, end to end.
//
//  1. "Measure" a system: generate an AIX-like occupancy trace.
//  2. Characterize it (§2.3): Table 1 statistics and fitted distributions.
//  3. Parameterize and run the ROCC simulation with the fitted workload.
//  4. Trace the *simulation* with the same tracer interface.
//  5. Re-characterize the simulation's trace and compare — the Table 3
//     validation, reproduced in one program.
package main

import (
	"fmt"
	"log"

	"rocc"
)

func main() {
	// 1. The "measured" system: 100 simulated seconds of an instrumented
	// NAS pvmbt node under PVM on one SP-2 node.
	recs, err := rocc.GenerateTrace(rocc.TraceGenConfig{Seed: 7, DurationUS: 100e6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. measured trace: %d occupancy records\n", len(recs))

	// 2. Characterize.
	c, err := rocc.CharacterizeTrace(recs)
	if err != nil {
		log.Fatal(err)
	}
	w := c.Workload()
	fmt.Printf("2. characterized: app CPU mean %.0f us, sampling period %.0f ms\n",
		w.AppCPU.Mean(), c.SamplingPeriod()/1000)

	// 3. Simulate the same single-node case with the fitted workload.
	cfg := rocc.DefaultConfig()
	cfg.Nodes = 1
	cfg.Duration = 100e6
	cfg.SamplingPeriod = c.SamplingPeriod()
	cfg.Workload = w
	m, err := rocc.NewModel(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Trace the simulation and keep node 0's view (Figure 29's setup,
	// but the "system" is now the model).
	if _, err := m.EnableObservability(rocc.ObsOptions{Trace: true}); err != nil {
		log.Fatal(err)
	}
	res := m.Run()
	fmt.Printf("3. simulated: app %.2f s CPU, Pd %.2f s CPU over %.0f s\n",
		res.AppCPUTimePerNodeSec, res.PdCPUTimePerNodeSec, res.DurationSec)
	simRecs, err := m.NodeTraceRecords(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4. simulation trace: %d records\n", len(simRecs))

	// 5. Re-characterize and compare (Table 3).
	c2, err := rocc.CharacterizeTrace(simRecs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("5. measured vs simulated CPU time (the Table 3 check):")
	fmt.Printf("   %-22s %-12s %-12s\n", "", "application", "Pd daemon")
	fmt.Printf("   %-22s %-12.2f %-12.3f\n", "trace (measured)",
		c.CPUSeconds("application"), c.CPUSeconds("pd"))
	fmt.Printf("   %-22s %-12.2f %-12.3f\n", "simulation",
		c2.CPUSeconds("application"), c2.CPUSeconds("pd"))
	rel := func(a, b float64) float64 { return (a - b) / a * 100 }
	fmt.Printf("   disagreement: app %.1f%%, Pd %.1f%% — the model reproduces its inputs\n",
		rel(c.CPUSeconds("application"), c2.CPUSeconds("application")),
		rel(c.CPUSeconds("pd"), c2.CPUSeconds("pd")))
}
