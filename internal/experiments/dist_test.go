package experiments

import (
	"context"
	"reflect"
	"testing"

	"rocc/internal/core"
	"rocc/internal/dist"
)

// TestDistSweepMatchesRunFactorial pins the cross-command contract that
// roccsweep -grid table4 reproduces roccbench -exp table4's runs: a
// distributed sweep of the table4 grid yields exactly the per-row values
// runFactorial computes for the same seed, reps and duration. Worker
// faults and retries are dist's own concern (TestDeterministicUnderFaults).
func TestDistSweepMatchesRunFactorial(t *testing.T) {
	const seed, reps, durationSec = 5, 2, 0.02
	_, rows, err := nowFactorialRows()
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: seed, DurationUS: durationSec * 1e6, Reps: reps}
	ov, lat, err := runFactorial(rows, opt, core.MetricPdCPUTime, core.MetricLatency)
	if err != nil {
		t.Fatal(err)
	}

	runners := make([]dist.Runner, 3)
	for i := range runners {
		runners[i] = dist.InProcessRunner{ID: i}
	}
	rep, err := dist.Sweep(context.Background(), dist.SweepOptions{
		Grid: "table4", Seed: seed, Reps: reps, DurationSec: durationSec,
		Dist: dist.Options{Runners: runners, ShardSize: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != len(rows) {
		t.Fatalf("sweep has %d cells, design has %d rows", len(rep.Cells), len(rows))
	}
	for i, cell := range rep.Cells {
		if cell.Label != rows[i].label {
			t.Fatalf("cell %d label %q, design row %q", i, cell.Label, rows[i].label)
		}
		var sweepOv, sweepLat []float64
		for _, r := range cell.Results {
			sweepOv = append(sweepOv, core.MetricPdCPUTime(r))
			sweepLat = append(sweepLat, core.MetricLatency(r))
		}
		if !reflect.DeepEqual(sweepOv, ov[i]) || !reflect.DeepEqual(sweepLat, lat[i]) {
			t.Fatalf("row %s: sweep (%v, %v) != runFactorial (%v, %v)",
				rows[i].label, sweepOv, sweepLat, ov[i], lat[i])
		}
	}
}
