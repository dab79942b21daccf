// MPP study: direct vs binary-tree forwarding on a massively parallel
// system (Figures 26-28): tree forwarding costs extra daemon CPU for
// merging, the trade-off Paradyn resolves in favor of low direct overhead,
// and frequent barrier operations change who gets the CPU.
package main

import (
	"fmt"
	"log"

	"rocc"
)

func run(nodes int, fwd rocc.Forwarding, barrierMS float64) rocc.Result {
	cfg := rocc.DefaultConfig()
	cfg.Arch = rocc.MPP
	cfg.Nodes = nodes
	cfg.Strategy = rocc.NewFixedBFStrategy(32)
	cfg.SamplingPeriod = 10000
	cfg.Forwarding = fwd
	cfg.BarrierPeriod = barrierMS * 1000
	cfg.Duration = 10e6
	res, err := rocc.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	fmt.Println("== Direct vs tree forwarding (BF batch 32, SP = 10 ms) ==")
	fmt.Printf("%-7s  %-10s  %-18s  %-14s  %-10s\n",
		"nodes", "config", "Pd CPU util (%)", "latency (ms)", "merges")
	for _, nodes := range []int{15, 63, 127} {
		for _, fwd := range []rocc.Forwarding{rocc.Direct, rocc.Tree} {
			res := run(nodes, fwd, 0)
			fmt.Printf("%-7d  %-10s  %-18.4f  %-14.2f  %-10d\n",
				nodes, fwd, res.PdCPUUtilPct, res.MonitoringLatencySec*1000, res.MessagesMerged)
		}
	}
	fmt.Println("\nTree forwarding spends extra daemon CPU merging children's data")
	fmt.Println("(§4.4.2); Paradyn prefers direct forwarding with BF batching.")

	fmt.Println("\n== Barrier-frequency effect (63 nodes, direct, BF) ==")
	fmt.Printf("%-18s  %-18s  %-18s\n", "barrier period", "app CPU util (%)", "Pd CPU util (%)")
	for _, ms := range []float64{0.5, 5, 50, 500} {
		res := run(63, rocc.Direct, ms)
		fmt.Printf("%-18s  %-18.2f  %-18.4f\n",
			fmt.Sprintf("%.1f ms", ms), res.AppCPUUtilPct, res.PdCPUUtilPct)
	}
	fmt.Println("\nFrequent barriers idle the application, so its CPU share falls")
	fmt.Println("while the daemon finds the CPU more available (Figure 28).")
}
