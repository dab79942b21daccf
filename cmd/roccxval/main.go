// Command roccxval runs the cross-validation dashboard: it evaluates the
// analytic model against the discrete-event simulation over a shared
// scenario grid and reports the error surface — per-metric relative
// error, CI coverage, and worst-case divergence per architecture/policy
// cell.
//
// Usage:
//
//	roccxval [-grid paper|smoke|full] [-duration SEC] [-reps N]
//	         [-seed N] [-parallel N] [-json] [-out FILE]
//	roccxval -check XVAL_tolerance.json
//
// Output is deterministic: for a fixed seed the error surface is
// byte-identical at any -parallel setting. With -check, the run
// parameters come from the tolerance file and the exit status reports
// whether the analytic-vs-simulation error stays within the committed
// bounds.
package main

import (
	"flag"
	"fmt"
	"os"

	"rocc/internal/cli"
	"rocc/internal/scenario"
	"rocc/internal/xval"
)

func gridByName(name string) (scenario.Grid, error) {
	switch name {
	case "paper":
		return scenario.PaperGrid(), nil
	case "smoke":
		return scenario.SmokeGrid(), nil
	case "full":
		return scenario.FullGrid(), nil
	}
	return scenario.Grid{}, fmt.Errorf("unknown grid %q (want paper, smoke, or full)", name)
}

func main() {
	fs := flag.NewFlagSet("roccxval", flag.ExitOnError)
	grid := fs.String("grid", "paper", "scenario grid: paper, smoke, or full")
	duration := fs.Float64("duration", 10, "simulated seconds per replication")
	reps := fs.Int("reps", 3, "simulation replications per grid cell")
	check := fs.String("check", "", "tolerance file: run at its recorded parameters and fail if exceeded")
	jsonOut := cli.JSON(fs)
	outPath := cli.Out(fs)
	parallel := cli.Parallel(fs)
	seed := cli.Seed(fs)
	fs.Parse(os.Args[1:])

	opt := xval.DefaultOptions()
	opt.Seed = *seed
	opt.DurationUS = *duration * 1e6
	opt.Reps = *reps
	opt.Workers = *parallel

	var tol xval.Tolerance
	if *check != "" {
		f, err := os.Open(*check)
		if err != nil {
			fatal(err)
		}
		tol, err = xval.LoadTolerance(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		// The gate reproduces the committed run exactly.
		*grid = tol.Grid
		opt.Seed = tol.Seed
		opt.DurationUS = tol.DurationSec * 1e6
		opt.Reps = tol.Reps
	}

	g, err := gridByName(*grid)
	if err != nil {
		fatal(err)
	}
	rep, err := xval.Run(g, opt)
	if err != nil {
		fatal(err)
	}

	w, err := cli.Output(*outPath)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		err = rep.WriteJSON(w)
	} else {
		err = rep.RenderText(w)
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}

	if *check != "" {
		if err := rep.Check(tol); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "roccxval: tolerance check passed (grid=%s backend=%s)\n",
			tol.Grid, tol.Backend)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roccxval:", err)
	os.Exit(1)
}
