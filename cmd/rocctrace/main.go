// Command rocctrace inspects AIX-like occupancy trace files: per-process
// totals (the execution statistics the Section 5 experiments extract from
// trace files) and windowed utilization timelines.
//
// Examples:
//
//	rocctrace -in trace.txt
//	rocctrace -in trace.txt -timeline 20
//	rocctrace -in trace.txt -json
//	rocctrace -in trace.bin -format binary -timeline 12 -resource net
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rocc/internal/report"
	"rocc/internal/trace"
)

func main() {
	var (
		in       = flag.String("in", "", "trace file to inspect (required)")
		format   = flag.String("format", "text", "trace format: text or binary")
		timeline = flag.Int("timeline", 0, "render an N-window utilization timeline")
		resource = flag.String("resource", "cpu", "timeline resource: cpu or net")
		asJSON   = flag.Bool("json", false, "emit the analysis as JSON instead of a table")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "rocctrace: -in required")
		os.Exit(2)
	}
	recs, err := readTrace(*in, *format)
	if err != nil {
		fatal("%v", err)
	}
	an, err := trace.Analyze(recs)
	if err != nil {
		fatal("%v", err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(an); err != nil {
			fatal("%v", err)
		}
		return
	}

	t := report.NewTable(
		fmt.Sprintf("%s: %d records over %.3f s", *in, an.Records, an.DurationUS/1e6),
		"process", "pids", "cpu time (s)", "cpu reqs", "cpu share", "net time (s)", "net reqs")
	for _, tot := range an.Totals {
		t.AddRow(tot.Class, fmt.Sprint(len(tot.PIDs)),
			report.F(tot.CPUTimeUS/1e6), fmt.Sprint(tot.CPUCount),
			report.Pct(an.CPUShare(tot.Class)*100),
			report.F(tot.NetTimeUS/1e6), fmt.Sprint(tot.NetCount))
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal("%v", err)
	}

	if *timeline > 0 {
		res, err := trace.ParseResource(strings.ToLower(*resource))
		if err != nil {
			fatal("%v", err)
		}
		classes, mids, shares, err := trace.Timeline(recs, res, *timeline)
		if err != nil {
			fatal("%v", err)
		}
		fig := report.NewFigure(
			fmt.Sprintf("%s occupancy share per %.3f-s window", res, 2*mids[0]),
			"t_sec", "share", mids)
		for i, class := range classes {
			if err := fig.Add(class, shares[i]); err != nil {
				fatal("%v", err)
			}
		}
		if err := fig.Plot(os.Stdout, report.PlotOptions{}); err != nil {
			fatal("%v", err)
		}
	}
}

func readTrace(path, format string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if format == "binary" {
		return trace.ReadBinary(f)
	}
	return trace.ReadText(f)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rocctrace: "+format+"\n", args...)
	os.Exit(1)
}
