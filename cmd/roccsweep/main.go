// Command roccsweep runs replication sweeps of the scenario grids
// through the fault-tolerant distributed engine (internal/dist).
//
// Usage:
//
//	roccsweep -grid smoke -reps 3 -out results.json        # this host only
//	roccsweep -grid table4 -reps 50 -workers 4             # 4 local worker processes
//	roccsweep -grid full -hosts big1,big2,big3             # ssh fleet
//	roccsweep -grid paper -workers 8 -journal sweep.journal
//	roccsweep -grid paper -workers 8 -journal sweep.journal -resume
//	roccsweep -grid paper -workers 8 -http :9090            # live /metrics /healthz /progress /debug/pprof
//	roccsweep -grid paper -workers 8 -trace timeline.json   # merged per-worker Chrome timeline
//	roccsweep -worker                                       # worker mode (started by a driver)
//
// Workers are plain roccsweep processes in -worker mode: the driver
// starts them itself (locally, or via ssh for -hosts) and speaks
// length-prefixed JSON over their stdin/stdout — no daemon, port, or
// shared filesystem. Every model seed is pre-derived from -seed, so the
// merged JSON is byte-identical at any -workers/-hosts topology, under
// worker crashes and hangs, and across -resume — and identical to the
// -workers 0 run on a single host.
//
// -chaos injects deterministic worker faults (for testing the engine
// itself): e.g. -chaos crash=0.25,hang=0.1,start=0.2,seed=7.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rocc/internal/cli"
	"rocc/internal/dist"
	"rocc/internal/obs/live"
)

func main() {
	var (
		worker     = flag.Bool("worker", false, "run as a worker process: serve shard requests on stdin/stdout")
		grid       = flag.String("grid", "smoke", "scenario grid: smoke, paper, full, table4, table5, or table6")
		reps       = flag.Int("reps", 3, "replications per grid cell (paper: 50)")
		duration   = flag.Float64("duration", 10, "simulated seconds per run")
		workers    = flag.Int("workers", 0, "local worker processes (0 = run in-process with -parallel)")
		hosts      = flag.String("hosts", "", "comma-separated ssh hosts to run workers on")
		remoteCmd  = flag.String("remote-cmd", "", "worker command on -hosts (default \"roccsweep -worker\")")
		shard      = flag.Int("shard", 1, "jobs per shard (the unit of dispatch, retry, and checkpointing)")
		retries    = flag.Int("retries", 3, "failed attempts per shard before it falls back to local execution")
		deadline   = flag.Duration("deadline", 2*time.Minute, "per-shard deadline before the first shard completes")
		journal    = flag.String("journal", "", "checkpoint completed shards to this file")
		resume     = flag.Bool("resume", false, "resume from -journal, recomputing only incomplete shards")
		noFallback = flag.Bool("no-fallback", false, "fail instead of degrading to local execution when workers are lost")
		chaos      = flag.String("chaos", "", "inject worker faults, e.g. crash=0.25,hang=0.1,start=0.2,seed=7")
		quiet      = flag.Bool("quiet", false, "suppress the fault-handling summary on stderr")
		traceOut   = flag.String("trace", "", "write the merged sweep timeline (per-worker dispatch/run/retry spans) as Chrome trace JSON")
		httpAddr   = cli.HTTP(flag.CommandLine)
		seed       = cli.Seed(flag.CommandLine)
		parallel   = cli.Parallel(flag.CommandLine)
		outPath    = cli.Out(flag.CommandLine)
	)
	flag.Parse()

	if *worker {
		if err := dist.ServeWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "roccsweep worker:", err)
			os.Exit(1)
		}
		return
	}

	runners := make([]dist.Runner, 0, *workers)
	for _, r := range dist.LocalRunners(*workers) {
		runners = append(runners, r)
	}
	for _, h := range strings.Split(*hosts, ",") {
		if h = strings.TrimSpace(h); h != "" {
			runners = append(runners, dist.SSHRunner{Host: h, Command: *remoteCmd})
		}
	}
	if *chaos != "" {
		spec, err := parseChaos(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roccsweep: -chaos:", err)
			os.Exit(2)
		}
		for i, r := range runners {
			runners[i] = &dist.Chaos{
				Inner:     r,
				Seed:      spec.seed + uint64(i),
				Crash:     spec.crash,
				Hang:      spec.hang,
				StartFail: spec.start,
			}
		}
	}

	monitor := dist.NewMonitor()
	if *httpAddr != "" {
		srv := live.NewServer(nil)
		srv.Exporter().SetSweep(monitor.Counters())
		srv.SetProgress(func() any { return monitor.Snapshot() })
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roccsweep:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "roccsweep: monitoring on http://%s (/metrics /healthz /progress /debug/pprof/)\n", addr)
	}
	opt := dist.SweepOptions{
		Grid:        *grid,
		Reps:        *reps,
		DurationSec: *duration,
		Seed:        *seed,
		Dist: dist.Options{
			Runners:         runners,
			ShardSize:       *shard,
			LocalParallel:   *parallel,
			MaxShardRetries: *retries,
			InitialDeadline: *deadline,
			NoLocalFallback: *noFallback,
			Journal:         *journal,
			Resume:          *resume,
			Seed:            *seed,
			Log:             os.Stderr,
			Monitor:         monitor,
		},
	}

	rep, err := dist.Sweep(context.Background(), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roccsweep:", err)
		os.Exit(1)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roccsweep:", err)
			os.Exit(1)
		}
		if err := monitor.WriteChrome(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "roccsweep: writing trace:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "roccsweep:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "roccsweep: wrote sweep timeline (%d events) to %s\n", monitor.Len(), *traceOut)
	}

	out, err := cli.Output(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roccsweep:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "roccsweep:", err)
		os.Exit(1)
	}
	if err := out.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "roccsweep:", err)
		os.Exit(1)
	}

	if !*quiet && len(runners) > 0 {
		var b strings.Builder
		for i, c := range monitor.Counters() {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%d", c.Name, c.Value())
		}
		fmt.Fprintln(os.Stderr, "roccsweep:", b.String())
	}
}

// chaosSpec is the parsed -chaos flag.
type chaosSpec struct {
	seed               uint64
	crash, hang, start float64
}

// parseChaos decodes "crash=0.25,hang=0.1,start=0.2,seed=7".
func parseChaos(s string) (chaosSpec, error) {
	var c chaosSpec
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return c, fmt.Errorf("want key=value, got %q", kv)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return c, fmt.Errorf("seed: %v", err)
			}
			c.seed = n
		case "crash", "hang", "start":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return c, fmt.Errorf("%s: want a probability in [0,1], got %q", k, v)
			}
			switch k {
			case "crash":
				c.crash = p
			case "hang":
				c.hang = p
			case "start":
				c.start = p
			}
		default:
			return c, fmt.Errorf("unknown key %q (want crash, hang, start, seed)", k)
		}
	}
	return c, nil
}
