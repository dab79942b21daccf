// SMP study: how many Paradyn daemons does a shared-memory multiprocessor
// need? Reproduces the shape of Figure 21 (daemon forwarding throughput vs
// CPU count for 1-4 daemons under CF and BF) and checks the bus-saturation
// effect of §4.3.3.
package main

import (
	"fmt"
	"log"

	"rocc"
)

func throughput(cpus, pds int, strategy rocc.ForwardStrategy) float64 {
	cfg := rocc.DefaultConfig()
	cfg.Arch = rocc.SMP
	cfg.Nodes = cpus
	cfg.AppProcs = cpus // one application process per CPU
	if pds > cpus {
		pds = cpus
	}
	cfg.Pds = pds
	cfg.Strategy = strategy
	cfg.SamplingPeriod = 5000
	cfg.Duration = 10e6
	res, err := rocc.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res.PdThroughputPerSec
}

func main() {
	for _, policy := range []struct {
		name     string
		strategy rocc.ForwardStrategy
	}{{"CF", rocc.NewCFStrategy()}, {"BF", rocc.NewFixedBFStrategy(32)}} {
		fmt.Printf("== Daemon forwarding throughput (samples/sec), %s policy ==\n", policy.name)
		fmt.Printf("%-6s", "CPUs")
		for pds := 1; pds <= 4; pds++ {
			fmt.Printf("  %8d Pd", pds)
		}
		fmt.Println()
		for _, cpus := range []int{1, 2, 4, 8, 16} {
			fmt.Printf("%-6d", cpus)
			for pds := 1; pds <= 4; pds++ {
				fmt.Printf("  %11.1f", throughput(cpus, pds, policy.strategy))
			}
			fmt.Println()
		}
		fmt.Println()
	}

	// Bus saturation: application CPU utilization collapses as CPU count
	// grows on a fixed-bandwidth bus (§4.3.3).
	fmt.Println("== Bus saturation with communication-intensive applications ==")
	for _, cpus := range []int{2, 8, 32} {
		cfg := rocc.DefaultConfig()
		cfg.Arch = rocc.SMP
		cfg.Nodes = cpus
		cfg.AppProcs = cpus
		cfg.Workload = rocc.CommIntensive.Apply(rocc.DefaultWorkload())
		cfg.Duration = 10e6
		res, err := rocc.Simulate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d CPUs: app CPU util %5.1f%%, bus util %5.1f%%\n",
			cpus, res.AppCPUUtilPct, res.NetUtilPct)
	}
}
