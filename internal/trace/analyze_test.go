package trace

import (
	"math"
	"testing"
)

func TestAnalyzeTotals(t *testing.T) {
	recs := []Record{
		{StartUS: 0, PID: 1, Process: ProcApplication, Resource: CPU, DurationUS: 100},
		{StartUS: 100, PID: 1, Process: ProcApplication, Resource: Network, DurationUS: 50},
		{StartUS: 150, PID: 2, Process: ProcApplication, Resource: CPU, DurationUS: 200},
		{StartUS: 350, PID: 3, Process: ProcPd, Resource: CPU, DurationUS: 30},
	}
	an, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	if an.Records != 4 || an.DurationUS != 380 {
		t.Fatalf("records %d, duration %v", an.Records, an.DurationUS)
	}
	app, ok := an.TotalsFor(ProcApplication)
	if !ok {
		t.Fatal("application missing")
	}
	if app.CPUTimeUS != 300 || app.NetTimeUS != 50 || app.CPUCount != 2 || app.NetCount != 1 {
		t.Fatalf("app totals %+v", app)
	}
	if len(app.PIDs) != 2 || app.PIDs[0] != 1 || app.PIDs[1] != 2 {
		t.Fatalf("app pids %v", app.PIDs)
	}
	if app.FirstUS != 0 || app.LastEndUS != 350 {
		t.Fatalf("app span %v-%v", app.FirstUS, app.LastEndUS)
	}
	// Application first in the ordering, pd second.
	if an.Totals[0].Class != ProcApplication || an.Totals[1].Class != ProcPd {
		t.Fatalf("ordering %v, %v", an.Totals[0].Class, an.Totals[1].Class)
	}
	if got := an.CPUShare(ProcApplication); math.Abs(got-300.0/380) > 1e-12 {
		t.Fatalf("cpu share %v", got)
	}
	if an.CPUShare("missing") != 0 {
		t.Fatal("missing class share should be 0")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Fatal("empty should fail")
	}
	bad := []Record{{StartUS: 0, PID: 1, Process: "x", Resource: CPU, DurationUS: -1}}
	if _, err := Analyze(bad); err == nil {
		t.Fatal("invalid record should fail")
	}
}

func TestAnalyzeUnknownClassOrdering(t *testing.T) {
	recs := []Record{
		{StartUS: 0, PID: 1, Process: "zebra", Resource: CPU, DurationUS: 10},
		{StartUS: 0, PID: 1, Process: ProcPd, Resource: CPU, DurationUS: 10},
	}
	an, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	if an.Totals[0].Class != ProcPd || an.Totals[1].Class != "zebra" {
		t.Fatalf("known classes must come first: %+v", an.Totals)
	}
}

func TestTimelineSplitsAcrossWindows(t *testing.T) {
	recs := []Record{
		// One 100-us CPU burst spanning the boundary of two 100-us windows.
		{StartUS: 50, PID: 1, Process: ProcApplication, Resource: CPU, DurationUS: 100},
		// Fixes the trace span at 200 us.
		{StartUS: 199, PID: 2, Process: ProcPd, Resource: CPU, DurationUS: 1},
	}
	classes, mids, shares, err := Timeline(recs, CPU, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Window midpoints in seconds: 50 us and 150 us.
	if len(mids) != 2 || math.Abs(mids[0]-50e-6) > 1e-18 || math.Abs(mids[1]-150e-6) > 1e-18 {
		t.Fatalf("midpoints %v, want [5e-05 0.00015]", mids)
	}
	var appIdx int = -1
	for i, c := range classes {
		if c == ProcApplication {
			appIdx = i
		}
	}
	if appIdx < 0 {
		t.Fatal("application missing from timeline")
	}
	// 50 us in each window => 0.5 share in both.
	if math.Abs(shares[appIdx][0]-0.5) > 1e-12 || math.Abs(shares[appIdx][1]-0.5) > 1e-12 {
		t.Fatalf("split shares %v", shares[appIdx])
	}
}

func TestTimelineFiltersResource(t *testing.T) {
	recs := []Record{
		{StartUS: 0, PID: 1, Process: ProcApplication, Resource: Network, DurationUS: 100},
	}
	_, _, shares, err := Timeline(recs, CPU, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range shares {
		for _, v := range row {
			if v != 0 {
				t.Fatal("network records must not appear in CPU timeline")
			}
		}
	}
}

func TestTimelineErrors(t *testing.T) {
	if _, _, _, err := Timeline(nil, CPU, 4); err == nil {
		t.Fatal("empty trace")
	}
	recs := []Record{{StartUS: 0, PID: 1, Process: "a", Resource: CPU, DurationUS: 1}}
	if _, _, _, err := Timeline(recs, CPU, 0); err == nil {
		t.Fatal("zero windows")
	}
}

func TestTimelineConservation(t *testing.T) {
	// Total share*width across windows equals total occupancy.
	recs, err := Generate(GenConfig{Seed: 21, DurationUS: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	classes, _, shares, err := Timeline(recs, CPU, 37)
	if err != nil {
		t.Fatal(err)
	}
	width := an.DurationUS / 37
	for i, class := range classes {
		sum := 0.0
		for _, s := range shares[i] {
			sum += s * width
		}
		want, _ := an.TotalsFor(class)
		if math.Abs(sum-want.CPUTimeUS) > 1e-6*(1+want.CPUTimeUS) {
			t.Fatalf("%s: timeline total %v != analyzed %v", class, sum, want.CPUTimeUS)
		}
	}
}

func TestTimelineSingleWindow(t *testing.T) {
	// windows=1 collapses the whole trace into one bin: the share is
	// total class occupancy over the trace span.
	recs := []Record{
		{StartUS: 0, PID: 1, Process: ProcApplication, Resource: CPU, DurationUS: 60},
		{StartUS: 100, PID: 2, Process: ProcPd, Resource: CPU, DurationUS: 100},
	}
	classes, _, shares, err := Timeline(recs, CPU, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{ProcApplication: 60.0 / 200.0, ProcPd: 100.0 / 200.0}
	for i, class := range classes {
		if len(shares[i]) != 1 {
			t.Fatalf("%s: %d windows, want 1", class, len(shares[i]))
		}
		if math.Abs(shares[i][0]-want[class]) > 1e-12 {
			t.Errorf("%s share %v, want %v", class, shares[i][0], want[class])
		}
	}
}

func TestTimelineMoreWindowsThanRecords(t *testing.T) {
	// More windows than records: sparse bins stay zero, occupied bins
	// still conserve the total, and a burst narrower than a window fills
	// only its fraction.
	recs := []Record{
		{StartUS: 0, PID: 1, Process: ProcApplication, Resource: CPU, DurationUS: 10},
		{StartUS: 990, PID: 1, Process: ProcApplication, Resource: CPU, DurationUS: 10},
	}
	classes, _, shares, err := Timeline(recs, CPU, 100) // 10-us windows over a 1000-us span
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 1 || len(shares[0]) != 100 {
		t.Fatalf("classes=%v windows=%d", classes, len(shares[0]))
	}
	row := shares[0]
	if row[0] != 1 || row[99] != 1 {
		t.Errorf("edge windows = %v / %v, want fully occupied", row[0], row[99])
	}
	sum := 0.0
	for w, s := range row {
		if w != 0 && w != 99 && s != 0 {
			t.Errorf("window %d has share %v, want 0", w, s)
		}
		sum += s
	}
	if math.Abs(sum-2) > 1e-12 {
		t.Errorf("total occupied windows %v, want 2", sum)
	}
}
