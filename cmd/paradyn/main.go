// Command paradyn runs the real measurement testbed of Section 5: an
// instrumented NAS-like kernel forwards samples through a daemon over
// loopback TCP to a collector, under the CF or BF policy, and reports the
// measured direct overheads.
//
// Examples:
//
//	paradyn -kernel bt -policy cf -sp 10ms -duration 5s
//	paradyn -kernel is -policy bf:32 -sp 10ms -duration 5s
//	paradyn -compare -duration 2s     # CF vs BF side by side
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rocc/internal/cli"
	"rocc/internal/forward"
	"rocc/internal/report"
	"rocc/internal/testbed"
)

func main() {
	var (
		kernel   = flag.String("kernel", "bt", "application kernel: bt (pvmbt) or is (pvmis)")
		size     = flag.Int("size", 0, "kernel size (0 = default)")
		policy   = cli.Policy(flag.CommandLine, 32)
		sp       = flag.Duration("sp", 10*time.Millisecond, "sampling period")
		duration = flag.Duration("duration", 2*time.Second, "run duration")
		pipeCap  = flag.Int("pipe", 256, "pipe capacity (samples)")
		seed     = flag.Uint64("seed", 1, "kernel seed")
		compare  = flag.Bool("compare", false, "run CF and BF back to back and report the reduction")
		nodes    = flag.Int("nodes", 1, "number of nodes (app+daemon pairs); >1 runs the cluster testbed")
		tree     = flag.Bool("tree", false, "route cluster traffic through a binary tree of relays")
	)
	flag.Parse()

	strategy := policy.Strategy()
	if strategy == nil {
		strategy = forward.NewCF()
	}

	if *nodes > 1 || *tree {
		runCluster(*nodes, *kernel, *size, strategy, *sp, *duration, *pipeCap, *seed, *tree)
		return
	}

	mkCfg := func(s forward.Strategy) testbed.ExpConfig {
		return testbed.ExpConfig{
			Kernel:         *kernel,
			KernelSize:     *size,
			Strategy:       s,
			SamplingPeriod: *sp,
			Duration:       *duration,
			PipeCapacity:   *pipeCap,
			Seed:           *seed,
		}
	}

	if *compare {
		// CF beside the -policy BF strategy, or bf:32 when -policy names none.
		bfStrategy := forward.NewFixedBF(32)
		if p, _ := forward.PolicyOf(strategy); p == forward.BF {
			bfStrategy = strategy
		}
		cf, err := testbed.Run(mkCfg(forward.NewCF()))
		if err != nil {
			fatal("%v", err)
		}
		bf, err := testbed.Run(mkCfg(bfStrategy))
		if err != nil {
			fatal("%v", err)
		}
		t := report.NewTable(fmt.Sprintf("CF vs BF on %s (SP=%v, %s, %v run)", *kernel, *sp, bfStrategy, *duration),
			"metric", "CF", "BF")
		t.AddRow("daemon CPU time (sec)", report.F(cf.Daemon.BusySec), report.F(bf.Daemon.BusySec))
		t.AddRow("main CPU time (sec)", report.F(cf.Collector.BusySec), report.F(bf.Collector.BusySec))
		t.AddRow("write syscalls", fmt.Sprint(cf.Daemon.Writes), fmt.Sprint(bf.Daemon.Writes))
		t.AddRow("samples received", fmt.Sprint(cf.Collector.Samples), fmt.Sprint(bf.Collector.Samples))
		t.AddRow("mean latency (sec)", report.F(cf.Collector.MeanLatencySec), report.F(bf.Collector.MeanLatencySec))
		t.AddRow("app steps", fmt.Sprint(cf.App.Steps), fmt.Sprint(bf.App.Steps))
		if err := t.Render(os.Stdout); err != nil {
			fatal("%v", err)
		}
		if cf.Daemon.BusySec > 0 {
			fmt.Printf("\nBF reduces daemon overhead by %.0f%% and syscalls by %.0f%%\n",
				(1-bf.Daemon.BusySec/cf.Daemon.BusySec)*100,
				(1-float64(bf.Daemon.Writes)/float64(cf.Daemon.Writes))*100)
		}
		return
	}

	res, err := testbed.Run(mkCfg(strategy))
	if err != nil {
		fatal("%v", err)
	}
	t := report.NewTable(fmt.Sprintf("Measurement run: %s under %s (SP=%v, %v)", *kernel, strategy, *sp, *duration),
		"metric", "value")
	t.AddRow("application steps", fmt.Sprint(res.App.Steps))
	t.AddRow("application ops", fmt.Sprint(res.App.Ops))
	t.AddRow("samples generated", fmt.Sprint(res.App.SamplesGenerated))
	t.AddRow("app blocked on pipe (sec)", report.F(res.App.BlockedSec))
	t.AddRow("daemon CPU time (sec)", report.F(res.Daemon.BusySec))
	t.AddRow("daemon write syscalls", fmt.Sprint(res.Daemon.Writes))
	t.AddRow("messages forwarded", fmt.Sprint(res.Daemon.MessagesForwarded))
	t.AddRow("collector CPU time (sec)", report.F(res.Collector.BusySec))
	t.AddRow("samples received", fmt.Sprint(res.Collector.Samples))
	t.AddRow("mean monitoring latency (sec)", report.F(res.Collector.MeanLatencySec))
	t.AddRow("max monitoring latency (sec)", report.F(res.Collector.MaxLatencySec))
	t.AddRow("normalized Pd occupancy (%)", report.F(res.NormalizedPdPct))
	if err := t.Render(os.Stdout); err != nil {
		fatal("%v", err)
	}
}

// runCluster executes the multi-node testbed (the Figure 29 setup) and
// prints per-node and aggregate overheads.
func runCluster(nodes int, kernel string, size int, strategy forward.Strategy,
	sp, duration time.Duration, pipeCap int, seed uint64, tree bool) {
	res, err := testbed.RunCluster(testbed.ClusterConfig{
		Nodes:          nodes,
		Kernel:         kernel,
		KernelSize:     size,
		Strategy:       strategy,
		SamplingPeriod: sp,
		Duration:       duration,
		PipeCapacity:   pipeCap,
		Seed:           seed,
		Tree:           tree,
	})
	if err != nil {
		fatal("%v", err)
	}
	cfgName := "direct"
	if tree {
		cfgName = "tree"
	}
	t := report.NewTable(fmt.Sprintf("Cluster run: %d nodes, %s under %s (%s forwarding)", nodes, kernel, strategy, cfgName),
		"node", "app steps", "samples", "daemon CPU (sec)", "writes", "blocked (sec)")
	for i, nr := range res.Nodes {
		t.AddRow(fmt.Sprint(i), fmt.Sprint(nr.App.Steps), fmt.Sprint(nr.App.SamplesGenerated),
			report.F(nr.Daemon.BusySec), fmt.Sprint(nr.Daemon.Writes), report.F(nr.App.BlockedSec))
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("\naverage direct daemon overhead: %s sec/node\n", report.F(res.MeanDaemonBusySec))
	if tree {
		fmt.Printf("relay merge work (tree forwarding extra cost): %s sec total\n", report.F(res.TotalRelayBusySec))
	}
	fmt.Printf("collector: %d samples in %d messages, mean latency %s sec\n",
		res.Collector.Samples, res.Collector.Messages, report.F(res.Collector.MeanLatencySec))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paradyn: "+format+"\n", args...)
	os.Exit(1)
}
