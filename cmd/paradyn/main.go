// Command paradyn runs the real measurement testbed of Section 5: on each
// node an instrumented NAS-like kernel forwards samples through a daemon
// over loopback TCP to one collector, directly or through a binary tree of
// relays, under the CF or BF policy, and reports the measured direct
// overheads.
//
// Examples:
//
//	paradyn -kernel bt -policy cf -sp 10ms -duration 5s
//	paradyn -kernel is -policy bf:32 -sp 10ms -duration 5s
//	paradyn -compare -duration 2s            # CF vs BF side by side
//	paradyn -nodes 7 -tree                   # seven nodes through relays
//	paradyn -compare -nodes 4 -duration 2s   # CF vs BF over four nodes
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
		nodes    = flag.Int("nodes", 1, "number of nodes (app+daemon pairs)")
		tree     = flag.Bool("tree", false, "route traffic through a binary tree of relays")
	)
	flag.Parse()
	if *nodes < 1 {
		fmt.Fprintf(os.Stderr, "paradyn: -nodes must be at least 1, got %d\n", *nodes)
		os.Exit(2)
	}

	strategy := policy.Strategy()
	if strategy == nil {
		strategy = forward.NewCF()
	}
	cfg := testbed.Config{
		Nodes:          *nodes,
		Kernel:         *kernel,
		KernelSize:     *size,
		SamplingPeriod: *sp,
		Duration:       *duration,
		PipeCapacity:   *pipeCap,
		Seed:           *seed,
		Tree:           *tree,
	}
	setup := fmt.Sprintf("%s on %d node(s), %s forwarding (SP=%v, %v run)",
		*kernel, *nodes, forwarding(*tree), *sp, *duration)

	if *compare {
		// CF beside the -policy BF strategy, or bf:32 when -policy names none.
		bfStrategy := forward.NewFixedBF(32)
		if p, _ := forward.PolicyOf(strategy); p == forward.BF {
			bfStrategy = strategy
		}
		cfg.Strategy = forward.NewCF()
		cf := run(cfg)
		cfg.Strategy = bfStrategy
		bf := run(cfg)
		cfBusy, bfBusy := sum(cf, daemonBusy), sum(bf, daemonBusy)
		cfWrites, bfWrites := sum(cf, writes), sum(bf, writes)
		t := report.NewTable(fmt.Sprintf("CF vs %s: %s", bfStrategy, setup), "metric", "CF", "BF")
		t.AddRow("daemon CPU time, all nodes (sec)", report.F(cfBusy), report.F(bfBusy))
		t.AddRow("main CPU time (sec)", report.F(cf.Collector.BusySec), report.F(bf.Collector.BusySec))
		t.AddRow("write syscalls", fmt.Sprint(cfWrites), fmt.Sprint(bfWrites))
		t.AddRow("samples received", fmt.Sprint(cf.Collector.Samples), fmt.Sprint(bf.Collector.Samples))
		t.AddRow("mean latency (sec)", report.F(cf.Collector.MeanLatencySec), report.F(bf.Collector.MeanLatencySec))
		t.AddRow("app steps", fmt.Sprint(sum(cf, steps)), fmt.Sprint(sum(bf, steps)))
		render(t)
		if cfBusy > 0 {
			fmt.Printf("\nBF reduces daemon overhead by %.0f%% and syscalls by %.0f%%\n",
				(1-bfBusy/cfBusy)*100, (1-float64(bfWrites)/float64(cfWrites))*100)
		}
		return
	}

	cfg.Strategy = strategy
	res := run(cfg)
	nt := report.NewTable(fmt.Sprintf("Measurement run: %s under %s", setup, strategy),
		"node", "app steps", "app ops", "samples generated", "app blocked on pipe (sec)",
		"daemon CPU time (sec)", "daemon write syscalls", "messages forwarded")
	for i, nr := range res.Nodes {
		nt.AddRow(fmt.Sprint(i), fmt.Sprint(nr.App.Steps), fmt.Sprint(nr.App.Ops),
			fmt.Sprint(nr.App.SamplesGenerated), report.F(nr.App.BlockedSec),
			report.F(nr.Daemon.BusySec), fmt.Sprint(nr.Daemon.Writes), fmt.Sprint(nr.Daemon.MessagesForwarded))
	}
	render(nt)
	fmt.Println()
	t := report.NewTable("Collector and all nodes", "metric", "value")
	t.AddRow("collector CPU time (sec)", report.F(res.Collector.BusySec))
	t.AddRow("samples received", fmt.Sprint(res.Collector.Samples))
	t.AddRow("messages received", fmt.Sprint(res.Collector.Messages))
	t.AddRow("mean monitoring latency (sec)", report.F(res.Collector.MeanLatencySec))
	t.AddRow("max monitoring latency (sec)", report.F(res.Collector.MaxLatencySec))
	t.AddRow("average daemon CPU time (sec/node)", report.F(res.MeanDaemonBusySec))
	t.AddRow("normalized Pd occupancy (%)", report.F(res.NormalizedPdPct))
	if *tree {
		t.AddRow("relay merge work (sec)", report.F(res.TotalRelayBusySec))
	}
	render(t)
}

func forwarding(tree bool) string {
	if tree {
		return "tree"
	}
	return "direct"
}

func run(cfg testbed.Config) testbed.Result {
	res, err := testbed.Run(cfg)
	if err != nil {
		fatal("%v", err)
	}
	return res
}

func daemonBusy(nr testbed.NodeResult) float64 { return nr.Daemon.BusySec }
func writes(nr testbed.NodeResult) int         { return nr.Daemon.Writes }
func steps(nr testbed.NodeResult) int64        { return nr.App.Steps }

// sum totals one node statistic over every node of a run.
func sum[T int | int64 | float64](res testbed.Result, stat func(testbed.NodeResult) T) T {
	var s T
	for _, nr := range res.Nodes {
		s += stat(nr)
	}
	return s
}

func render(t *report.Table) {
	if err := t.Render(os.Stdout); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paradyn: "+format+"\n", args...)
	os.Exit(1)
}
