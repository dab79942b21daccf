// Command roccbench regenerates the paper's tables and figures.
//
// Usage:
//
//	roccbench -list
//	roccbench -exp fig17
//	roccbench -exp all -duration 100 -reps 50   # paper scale
//	roccbench -exp fig9 -csv                    # CSV series for plotting
//	roccbench -exp fig16 -parallel 8            # fan replications over 8 workers
//	roccbench -exp fig17 -cpuprofile cpu.pprof  # profile the regeneration
//
// -policy overrides the candidate strategy of the experiments that take
// one (ext-adaptive-bf); with no such experiment selected it is a usage
// error.
//
// -parallel N fans the independent simulation runs of an experiment
// (replications, factorial rows, sweep points) over N worker goroutines;
// 0 means one per core, 1 forces the serial path. Output is byte-identical
// at any setting. To fan Tables 4-6 over worker processes or hosts, use
// roccsweep -grid table4 (or table5, table6): it runs the same seed chain
// through the fault-tolerant distributed engine (internal/dist).
//
// roccbench keeps no performance record of its own: the perfbench module
// measures wall time, spread and per-layer cost, and TestResultDigestPins
// (internal/core) pins the exact events and bounds the allocations of
// six fixed-seed runs.
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
	"rocc/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list      = flag.Bool("list", false, "list available experiments")
		duration  = flag.Float64("duration", 10, "simulated seconds per run")
		reps      = flag.Int("reps", 3, "replications for factorial designs (paper: 50)")
		testbedMS = flag.Int("testbed-ms", 250, "wall-clock milliseconds per measurement run")
		csv       = flag.Bool("csv", false, "emit figures as CSV")
		plot      = flag.Bool("plot", false, "additionally render figures as ASCII charts")
		paper     = flag.Bool("paper", false, "paper-scale options (100 s, r=50, 5 s testbed; slow)")
		seed      = cli.Seed(flag.CommandLine)
		policy    = cli.Policy(flag.CommandLine, 0)
		parallel  = cli.Parallel(flag.CommandLine)
		calName   = flag.String("calendar", "auto", "event calendar: auto, heap, bucket (results identical; perf only)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit")
	)
	flag.Parse()

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
	opt.Policy = policy.Strategy()
	cal, err := des.ParseCalendarKind(*calName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roccbench:", err)
		os.Exit(2)
	}
	opt.Calendar = cal

	ids := expandIDs(*exp)
	if *exp == "all" {
		ids = experiments.IDs()
	}
	if opt.Policy != nil {
		if err := checkPolicy(ids); err != nil {
			fmt.Fprintln(os.Stderr, "roccbench:", err)
			os.Exit(2)
		}
	}

	if *exp == "all" {
		if err := experiments.RunAll(os.Stdout, opt); err != nil {
			fmt.Fprintln(os.Stderr, "roccbench:", err)
			os.Exit(1)
		}
		return
	}
	// Comma-separated lists run in order: roccbench -exp fig17,fig18,fig19
	for _, id := range ids {
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

// checkPolicy refuses -policy unless one of the selected experiments ids
// reads it, so a policy nothing applies is a usage error rather than a
// flag silently ignored.
func checkPolicy(ids []string) error {
	for _, id := range ids {
		if e, ok := experiments.ByID(id); ok && e.ReadsPolicy {
			return nil
		}
	}
	return fmt.Errorf("-policy is read only by %s, and -exp selects none of them", strings.Join(experiments.PolicyReaders(), ", "))
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
