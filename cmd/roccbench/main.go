// Command roccbench regenerates the paper's tables and figures.
//
// Usage:
//
//	roccbench -list
//	roccbench -exp fig17
//	roccbench -exp all -duration 100 -reps 50   # paper scale
//	roccbench -exp fig9 -csv                    # CSV series for plotting
//	roccbench -exp fig16 -parallel 8            # fan replications over 8 workers
//	roccbench -exp table4 -dist 4               # fan factorial runs over 4 worker processes
//	roccbench -exp table4 -dist 4 -http :9090   # live /metrics and /progress while it runs
//	roccbench -exp fig17 -cpuprofile cpu.pprof  # profile the regeneration
//
// -parallel N fans the independent simulation runs of an experiment
// (replications, factorial rows, sweep points) over N worker goroutines;
// 0 means one per core, 1 forces the serial path. Output is byte-identical
// at any setting. -dist N instead fans the factorial designs over N worker
// processes through the fault-tolerant distributed engine (internal/dist);
// the workers are this binary re-executed with -worker, and output is
// byte-identical to the in-process paths.
//
// roccbench keeps no performance record of its own: the perfbench module
// measures wall time, spread and per-layer cost, and TestResultDigestPins
// (internal/core) pins the exact events and bounds the allocations of
// four fixed-seed runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rocc/internal/cli"
	"rocc/internal/des"
	"rocc/internal/dist"
	"rocc/internal/experiments"
	"rocc/internal/obs"
	"rocc/internal/obs/live"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id (see -list), or 'all'")
		worker    = flag.Bool("worker", false, "run as a distributed-sweep worker on stdin/stdout (started by -dist drivers)")
		distN     = flag.Int("dist", 0, "fan factorial designs over this many worker processes (0 = in-process)")
		list      = flag.Bool("list", false, "list available experiments")
		duration  = flag.Float64("duration", 10, "simulated seconds per run")
		reps      = flag.Int("reps", 3, "replications for factorial designs (paper: 50)")
		testbedMS = flag.Int("testbed-ms", 250, "wall-clock milliseconds per measurement run")
		csv       = flag.Bool("csv", false, "emit figures as CSV")
		plot      = flag.Bool("plot", false, "additionally render figures as ASCII charts")
		paper     = flag.Bool("paper", false, "paper-scale options (100 s, r=50, 5 s testbed; slow)")
		seed      = cli.Seed(flag.CommandLine)
		policy    = cli.Policy(flag.CommandLine)
		parallel  = cli.Parallel(flag.CommandLine)
		httpAddr  = cli.HTTP(flag.CommandLine)
		calName   = flag.String("calendar", "auto", "event calendar: auto, heap, bucket (results identical; perf only)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit")
	)
	flag.Parse()

	if *worker {
		if err := dist.ServeWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "roccbench worker:", err)
			os.Exit(1)
		}
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roccbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "roccbench:", err)
			os.Exit(1)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "roccbench:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "roccbench:", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "roccbench: -exp required (or -list); e.g. roccbench -exp fig17")
		os.Exit(2)
	}

	opt := experiments.Options{
		Seed:            *seed,
		DurationUS:      *duration * 1e6,
		Reps:            *reps,
		TestbedDuration: time.Duration(*testbedMS) * time.Millisecond,
		CSV:             *csv,
		Plot:            *plot,
	}
	if *paper {
		opt = experiments.Paper()
		opt.CSV = *csv
		opt.Plot = *plot
		opt.Seed = *seed
	}
	opt.Parallel = *parallel
	opt.DistWorkers = *distN
	if policy.Given() {
		spec := policy.Spec()
		opt.Policy = &spec
	}
	if *httpAddr != "" {
		opt.SweepMetrics = obs.NewSweepMetrics()
		opt.Monitor = dist.NewMonitor()
		srv := live.NewServer(nil)
		srv.Exporter().SetSweep(opt.SweepMetrics)
		srv.SetProgress(func() any { return opt.Monitor.Snapshot() })
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roccbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "roccbench: monitoring on http://%s (/metrics /healthz /progress /debug/pprof/)\n", addr)
	}
	cal, err := des.ParseCalendarKind(*calName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roccbench:", err)
		os.Exit(2)
	}
	opt.Calendar = cal

	if *exp == "all" {
		if err := experiments.RunAll(os.Stdout, opt); err != nil {
			fmt.Fprintln(os.Stderr, "roccbench:", err)
			os.Exit(1)
		}
		return
	}
	// Comma-separated lists run in order: roccbench -exp fig17,fig18,fig19
	for _, id := range expandIDs(*exp) {
		e, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "roccbench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("# %s — %s\n", e.ID, e.Title)
		if err := e.Run(os.Stdout, opt); err != nil {
			fmt.Fprintln(os.Stderr, "roccbench:", err)
			os.Exit(1)
		}
	}
}

// expandIDs resolves a comma-separated -exp list.
func expandIDs(exp string) []string {
	var ids []string
	for _, id := range strings.Split(exp, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}
