package rocc_test

import (
	"fmt"
	"log"
	"time"

	"rocc"
)

// Simulate the paper's typical scenario and inspect the direct IS
// overhead metrics.
func ExampleSimulate() {
	cfg := rocc.DefaultConfig() // 8-node NOW, 40 ms sampling, Table 2 workload
	cfg.Duration = 10e6         // 10 simulated seconds
	cfg.Strategy = rocc.NewFixedBFStrategy(32)
	res, err := rocc.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("daemon overhead under BF stays below 0.1%%: %v\n", res.PdCPUUtilPct < 0.1)
	// Output: daemon overhead under BF stays below 0.1%: true
}

// Evaluate the Section 3 closed-form equations without simulating.
func ExampleAnalyticParams() {
	p := rocc.DefaultAnalyticParams() // 8 nodes, 40 ms sampling, CF
	m := p.NOW()
	fmt.Printf("Pd CPU utilization/node: %.3f%%\n", m.PdCPUUtil*100)
	// Output: Pd CPU utilization/node: 0.667%
}

// Replicated runs give confidence intervals, as in the paper's 2^k·r
// factorial experiments.
func ExampleSimulateReplications() {
	cfg := rocc.DefaultConfig()
	cfg.Nodes = 2
	cfg.Duration = 5e6
	rep, err := rocc.SimulateReplications(cfg, 5)
	if err != nil {
		log.Fatal(err)
	}
	ci := rep.CI(func(r rocc.Result) float64 { return r.PdCPUUtilPct }, 0.90)
	fmt.Printf("interval is positive and brackets its mean: %v\n",
		ci.HalfWidth > 0 && ci.Low() < ci.Mean && ci.Mean < ci.High())
	// Output: interval is positive and brackets its mean: true
}

// Run the real measurement testbed: an instrumented integer-sort kernel
// forwarding samples over loopback TCP.
func ExampleMeasure() {
	res, err := rocc.Measure(rocc.MeasureConfig{
		Kernel:         "is",
		Strategy:       rocc.NewCFStrategy(),
		SamplingPeriod: 2 * time.Millisecond,
		Duration:       100 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("every forwarded sample arrived: %v\n",
		res.Collector.Samples == res.Nodes[0].Daemon.SamplesForwarded)
	// Output: every forwarded sample arrived: true
}

// Characterize a trace and drive a simulation with the fitted workload —
// the full §2.3 pipeline.
func ExampleCharacterizeTrace() {
	recs, err := rocc.GenerateTrace(rocc.TraceGenConfig{Seed: 1, DurationUS: 20e6})
	if err != nil {
		log.Fatal(err)
	}
	c, err := rocc.CharacterizeTrace(recs)
	if err != nil {
		log.Fatal(err)
	}
	cfg := rocc.DefaultConfig()
	cfg.Nodes = 1
	cfg.Duration = 2e6
	cfg.Workload = c.Workload()
	_, err = rocc.Simulate(cfg)
	fmt.Printf("characterized workload simulates: %v\n", err == nil)
	// Output: characterized workload simulates: true
}
