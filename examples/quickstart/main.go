// Quickstart: simulate the Paradyn instrumentation system on an 8-node
// network of workstations under both forwarding policies and print the
// direct overhead each imposes.
package main

import (
	"fmt"
	"log"

	"rocc"
)

func main() {
	// The paper's "typical" configuration: 8 nodes, one instrumented
	// application process per node, samples collected every 40 ms.
	cfg := rocc.DefaultConfig()
	cfg.Duration = 20e6       // 20 simulated seconds
	cfg.SamplingPeriod = 5000 // 5 ms: sample fast enough for overhead to matter

	// Collect-and-forward: the daemon makes one forwarding system call per
	// sample (the pre-release Paradyn policy).
	cfg.Strategy = rocc.NewCFStrategy()
	cf, err := rocc.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Batch-and-forward: 32 samples per system call (the policy this
	// study's feedback added to Paradyn release 1.0).
	cfg.Strategy = rocc.NewFixedBFStrategy(32)
	bf, err := rocc.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Paradyn IS direct overhead, 8-node NOW, 5 ms sampling:")
	fmt.Printf("  CF: daemon %.3f s/node, main %.3f s, latency %.2f ms, %d samples received\n",
		cf.PdCPUTimePerNodeSec, cf.MainCPUTimeSec, cf.MonitoringLatencySec*1000, cf.SamplesReceived)
	fmt.Printf("  BF: daemon %.3f s/node, main %.3f s, latency %.2f ms, %d samples received\n",
		bf.PdCPUTimePerNodeSec, bf.MainCPUTimeSec, bf.MonitoringLatencySec*1000, bf.SamplesReceived)
	fmt.Printf("  -> BF cuts daemon overhead by %.0f%% (the paper measured >60%%)\n",
		(1-bf.PdCPUTimePerNodeSec/cf.PdCPUTimePerNodeSec)*100)
}
