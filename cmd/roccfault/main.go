// Command roccfault sweeps deterministic fault injection over the ROCC
// model and prints a survivability table: for every architecture (NOW,
// SMP, MPP) × forwarding policy (CF, BF) × configuration (direct, tree)
// and every fault-intensity level, it reports how much instrumentation
// data survives to the main Paradyn process without resilience and with
// ack/retransmission plus graceful degradation.
//
// Runs are exactly reproducible: two invocations with the same flags and
// seed emit byte-identical tables.
//
// Examples:
//
//	roccfault
//	roccfault -loss 2,10,20 -duration 20
//	roccfault -loss 5 -crash-mtbf 2000 -squeeze-mtbf 5000 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rocc/internal/cli"
	"rocc/internal/experiments"
)

func main() {
	var (
		loss    = flag.String("loss", "1,5,10", "comma-separated loss intensities in percent")
		dupFrac = flag.Float64("dup", 0.5, "duplication probability as a fraction of the loss probability")
		crash   = flag.Float64("crash-mtbf", 0, "daemon crash mean up-time in milliseconds (0 = no crashes)")
		squeeze = flag.Float64("squeeze-mtbf", 0, "pipe capacity-squeeze mean interval in milliseconds (0 = none)")
		nodes   = flag.Int("nodes", 8, "number of nodes (CPUs for SMP)")
		spMS    = flag.Float64("sp", 20, "sampling period in milliseconds")
		policy  = cli.Policy(flag.CommandLine, 16)
		dur     = flag.Float64("duration", 10, "simulated seconds per run")
		seed    = flag.Uint64("seed", 1, "random seed (model and fault schedules)")
	)
	flag.Parse()

	levels, err := parseLevels(*loss)
	if err != nil {
		fatal("bad -loss: %v", err)
	}

	opt := experiments.Default()
	opt.Seed = *seed
	opt.DurationUS = *dur * 1e6

	sw := experiments.FaultSweepOptions{
		LossLevels:       levels,
		DupFraction:      *dupFrac,
		CrashMTBFUS:      *crash * 1000,
		SqueezeMTBFUS:    *squeeze * 1000,
		SamplingPeriodUS: *spMS * 1000,
		Nodes:            *nodes,
		Policy:           policy.Strategy(),
	}
	if err := experiments.FaultSweep(os.Stdout, opt, sw); err != nil {
		fatal("%v", err)
	}
}

// parseLevels converts "1,5,10" (percent) into probabilities.
func parseLevels(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		if !(v >= 0 && v <= 100) { // also rejects NaN
			return nil, fmt.Errorf("loss %v%% out of [0,100]", v)
		}
		out = append(out, v/100)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no levels given")
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "roccfault: "+format+"\n", args...)
	os.Exit(1)
}
