package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"rocc/internal/core"
)

// tinyOptions shrinks every experiment far enough to run in CI.
func tinyOptions() Options {
	return Options{
		Seed:            1,
		DurationUS:      2e5, // 0.2 simulated seconds
		Reps:            2,
		TestbedDuration: 40 * time.Millisecond,
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be present.
	want := []string{
		"table1", "fig8", "table2", "table3",
		"fig9", "fig10", "fig12", "fig13", "fig14", "fig15",
		"table4", "fig16", "fig17", "fig18", "fig19",
		"table5", "fig20", "fig21", "fig22", "fig23", "fig24",
		"table6", "fig25", "fig26", "fig27", "fig28",
		"fig30", "table7", "fig31", "table8",
		"ext-adaptive", "ext-consultant", "ext-cluster", "ext-tracing", "ext-phases",
		"ext-crossval",
		"ablation-pipecap", "ablation-quantum", "ablation-eventqueue",
		"ablation-netcontention", "ablation-fitting", "ablation-detailed",
		"fault-survivability",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Fatalf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id should not resolve")
	}
	ids := IDs()
	if len(ids) != len(All()) {
		t.Fatal("IDs() inconsistent with All()")
	}
}

// Each fast (non-simulation-heavy) experiment runs and produces output.
func TestAnalyticExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig9", "fig10", "fig12", "fig13", "fig14", "fig15"} {
		e, _ := ByID(id)
		var buf bytes.Buffer
		if err := e.Run(&buf, tinyOptions()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
		if !strings.Contains(buf.String(), "Pd CPU utilization") {
			t.Fatalf("%s missing metric panel", id)
		}
	}
}

func TestCharacterizationExperimentsRun(t *testing.T) {
	for _, id := range []string{"table1", "table2", "fig8", "table3"} {
		e, _ := ByID(id)
		var buf bytes.Buffer
		if err := e.Run(&buf, tinyOptions()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

// Table 3 carries the paper's measured CPU times (application 85.71 s,
// daemon 0.74 s per 100 s) beside the trace and the simulation.
func TestTable3ShowsPaperMeasurement(t *testing.T) {
	e, _ := ByID("table3")
	var buf bytes.Buffer
	if err := e.Run(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	var row []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "Paper: SP-2 measurement (100 s)") {
			row = strings.Fields(line)
		}
	}
	if len(row) < 2 || row[len(row)-2] != "85.71" || row[len(row)-1] != "0.74" {
		t.Fatalf("table3 lacks the paper row ending 85.71 0.74:\n%s", buf.String())
	}
}

func TestTable1MentionsAllClasses(t *testing.T) {
	e, _ := ByID("table1")
	var buf bytes.Buffer
	if err := e.Run(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"application", "pd", "pvmd", "other", "paradyn"} {
		if !strings.Contains(buf.String(), class) {
			t.Errorf("table1 missing class %s:\n%s", class, buf.String())
		}
	}
}

func TestSimulationExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	for _, id := range []string{"fig17", "fig18", "fig19", "table4", "fig16"} {
		e, _ := ByID(id)
		var buf bytes.Buffer
		if err := e.Run(&buf, tinyOptions()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestSMPAndMPPExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	opt := tinyOptions()
	opt.DurationUS = 1e5
	for _, id := range []string{"table5", "fig20", "fig21", "table6", "fig25"} {
		e, _ := ByID(id)
		var buf bytes.Buffer
		if err := e.Run(&buf, opt); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

func TestRemainingSimulationExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	opt := tinyOptions()
	opt.DurationUS = 5e4 // 50 simulated ms: exercises the code paths only
	for _, id := range []string{"fig22", "fig23", "fig24", "fig26", "fig27", "fig28",
		"ext-adaptive", "ext-consultant", "ext-phases", "ablation-fitting", "ablation-detailed",
		"fault-survivability"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, opt); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

// TestFaultSweepByteIdentical is the reproducibility contract for the
// survivability table: same options and seed, byte-identical output.
func TestFaultSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	opt := tinyOptions()
	opt.DurationUS = 1e5
	sw := DefaultFaultSweep()
	sw.LossLevels = []float64{0.05}
	var a, b bytes.Buffer
	if err := FaultSweep(&a, opt, sw); err != nil {
		t.Fatal(err)
	}
	if err := FaultSweep(&b, opt, sw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("fault sweep not reproducible:\n--- a ---\n%s\n--- b ---\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "delivered % (resilient)") {
		t.Fatalf("sweep table missing survivability columns:\n%s", a.String())
	}
}

// The end-to-end determinism contract of the parallel sweep engine: a
// full experiment (fig16: a 2^k·r factorial with replications, plus
// allocation-of-variation tables) renders byte-identical output whether
// the runs execute serially or fan out one goroutine per core. Run under
// -race in CI, this also exercises the fan-out for data races.
func TestFig16ParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	e, _ := ByID("fig16")
	opt := tinyOptions()
	opt.DurationUS = 1e5

	render := func(parallel int) string {
		o := opt
		o.Parallel = parallel
		var buf bytes.Buffer
		if err := e.Run(&buf, o); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return buf.String()
	}
	serial := render(1)
	for _, workers := range []int{0, runtime.NumCPU(), 8} {
		if got := render(workers); got != serial {
			t.Fatalf("parallel=%d output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serial, got)
		}
	}
}

// The fault-survivability table must also be pool-size independent (its
// cells fan out across a flattened variant × intensity × resilience cube).
func TestFaultSweepParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	opt := tinyOptions()
	opt.DurationUS = 1e5
	sw := DefaultFaultSweep()
	sw.LossLevels = []float64{0.05}
	var serial, parallel bytes.Buffer
	opt.Parallel = 1
	if err := FaultSweep(&serial, opt, sw); err != nil {
		t.Fatal(err)
	}
	opt.Parallel = 8
	if err := FaultSweep(&parallel, opt, sw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("fault sweep depends on pool size:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

// The flattened factorial fan-out must reproduce the per-row
// RunReplications path bit for bit: same DeriveSeed chain, same results.
func TestFactorialMatchesReplicationPath(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	opt := tinyOptions()
	opt.DurationUS = 1e5
	cfg := core.DefaultConfig()
	cfg.Nodes = 2
	rows := []factorialRow{{label: "row0", cfg: cfg}}

	ov, _, err := runFactorial(rows, opt, core.MetricPdCPUTime, core.MetricLatency)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg
	want.Duration = opt.DurationUS
	want.Seed = core.DeriveSeed(opt.Seed, core.SeedStreamFactorial, 0)
	rep, err := core.RunReplicationsParallel(want, opt.Reps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ov[0]) != len(rep.Results) {
		t.Fatalf("replicate counts differ: %d vs %d", len(ov[0]), len(rep.Results))
	}
	for i, r := range rep.Results {
		if ov[0][i] != core.MetricPdCPUTime(r) {
			t.Fatalf("replicate %d: factorial %v vs replication path %v",
				i, ov[0][i], core.MetricPdCPUTime(r))
		}
	}
}

func TestMeasurementExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed experiments skipped in -short")
	}
	opt := tinyOptions()
	opt.Reps = 2
	run := func(id string) string {
		t.Helper()
		e, _ := ByID(id)
		var buf bytes.Buffer
		if err := e.Run(&buf, opt); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return buf.String()
	}
	// rowLabels returns the first field of every line of out.
	rowLabels := func(out string) map[string]int {
		labels := map[string]int{}
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 {
				labels[f[0]]++
			}
		}
		return labels
	}
	for _, id := range []string{"fig30", "fig31"} {
		out := run(id)
		if !strings.Contains(out, "CF") || !strings.Contains(out, "BF") {
			t.Fatalf("%s missing policy rows:\n%s", id, out)
		}
	}
	// Tables 7 and 8 print two allocation tables, each with a row per
	// effect and one for the error.
	for _, id := range []string{"table7", "table8"} {
		out := run(id)
		labels := rowLabels(out)
		for _, row := range []string{"A", "B", "AB", "error"} {
			if labels[row] != 2 {
				t.Fatalf("%s: %d %q rows, want 2:\n%s", id, labels[row], row, out)
			}
		}
	}
	out := run("ext-cluster")
	labels := rowLabels(out)
	if labels["direct"] != 1 || labels["tree"] != 1 {
		t.Fatalf("ext-cluster missing its direct and tree rows:\n%s", out)
	}
}

// Table 2 prints what Characterization.Workload hands a run: where the
// trace has too few requests to fit (here the "other" processes' network
// requests, whose Table 2 inter-arrival is 5.6 s), the row shows the
// Table 2 default and says so, never a mean-0 exponential or no row.
func TestTable2PrintsWorkloadDefaults(t *testing.T) {
	e, _ := ByID("table2")
	for _, dur := range []float64{2e5, 1e6} {
		opt := tinyOptions()
		opt.DurationUS = dur
		var buf bytes.Buffer
		if err := e.Run(&buf, opt); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if strings.Contains(out, "exponential(0)") {
			t.Fatalf("duration %v: a mean-0 exponential no run uses:\n%s", dur, out)
		}
		rows := map[string]string{}
		for _, line := range strings.Split(out, "\n") {
			if label, rest, ok := strings.Cut(line, "  "); ok {
				rows[label] = strings.Join(strings.Fields(rest), " ")
			}
		}
		if _, ok := rows["Other processes: length of net request"]; !ok {
			t.Fatalf("duration %v: no row for the other processes' network requests:\n%s", dur, out)
		}
		want := "exponential(5.598903e+06) (Table 2 default: too few requests in trace)"
		if got := rows["Other: inter-arrival of network requests"]; got != want {
			t.Fatalf("duration %v: other network inter-arrival %q, want %q", dur, got, want)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations skipped in -short")
	}
	for _, id := range []string{"ablation-pipecap", "ablation-quantum", "ablation-netcontention"} {
		e, _ := ByID(id)
		var buf bytes.Buffer
		if err := e.Run(&buf, tinyOptions()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

func TestCSVMode(t *testing.T) {
	e, _ := ByID("fig9")
	opt := tinyOptions()
	opt.CSV = true
	var buf bytes.Buffer
	if err := e.Run(&buf, opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nodes,CF,BF(32)") {
		t.Fatalf("CSV header missing:\n%s", buf.String())
	}
}

func TestOptionsNormalization(t *testing.T) {
	var o Options
	n := o.normalized()
	if n.DurationUS <= 0 || n.Reps < 1 || n.TestbedDuration <= 0 || n.Seed == 0 {
		t.Fatalf("normalized zero options invalid: %+v", n)
	}
	if Paper().Reps != 50 {
		t.Fatal("paper scale should use 50 replications")
	}
	if Default().Reps < 1 {
		t.Fatal("default reps")
	}
}
