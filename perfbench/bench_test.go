package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the benchmark must honour.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// smoke runs one workload in smoke mode and returns its report and the
// last line it prints.
func smoke(t *testing.T, workload string, trace bool, corrupt func(*output)) (*report, map[string]any) {
	t.Helper()
	c := runConfig{workload: workload, seed: 7, seconds: 0.2, trace: trace, smoke: true,
		traceOut: filepath.Join(t.TempDir(), "trace.json"), corrupt: corrupt}
	r, err := run(c)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	var buf bytes.Buffer
	if err := printReport(&buf, c, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	return r, last
}

// Every workload named in BENCHMARK.json runs in both modes, passes its
// checks and emits exactly the metrics BENCHMARK.json lists, with their
// units, under names of the allowed alphabet.
func TestSmokeAllWorkloadsEmitDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames, ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			declared := spec.EndToEnd
			if trace {
				declared = spec.PerLayer
			}
			r, last := smoke(t, w, trace, nil)
			if !r.Correct || r.Failed != 0 || r.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, r.Correct, r.Failed, r.Attempted)
			}
			keys := make([]string, 0, len(last))
			for k := range last {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
				t.Errorf("%s: result line keys %s", w, got)
			}
			if len(r.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w, trace, len(r.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s unit %q, declared %q", w, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", w, d.Name, m.Value)
				}
				if !metricName.MatchString(d.Name) {
					t.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.Name)
				}
			}
		}
	}
}

// A damaged output must be counted as a failed op and lower ok_frac.
func TestInjectedBadOutputFails(t *testing.T) {
	cases := map[string]func(*output){
		"now-cf-dense": func(o *output) { o.results[0].MonitoringLatencySec = math.NaN() },
		"chaos-observed": func(o *output) {
			o.results[0].SamplesReceived = o.results[0].SamplesGenerated + o.results[0].WarmupCarryover + 1
		},
		"table4-regen": func(o *output) { o.text = append(o.text, 'x') },
	}
	for w, corrupt := range cases {
		r, _ := smoke(t, w, false, corrupt)
		if r.Correct || r.Failed != r.Attempted-1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d, want every timed op failed", w, r.Correct, r.Failed, r.Attempted)
		}
		if ok := r.Metrics["ok_frac"].Value; ok >= 1 {
			t.Errorf("%s: ok_frac %v with failed ops", w, ok)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// Self time subtracts the union of the children, which may overlap when
// they ran on parallel workers.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{id: 1, name: "par.map", start: 0, end: 10 * ms},
		{id: 2, parent: 1, name: "par.job", start: 1 * ms, end: 5 * ms},
		{id: 3, parent: 1, name: "par.job", start: 2 * ms, end: 6 * ms},
		{id: 4, parent: 1, name: "par.job", start: 8 * ms, end: 12 * ms},
	}}
	self := tr.selfTimes()
	if got := self["par.map"]; got != 3*ms {
		t.Errorf("par.map self %v, want 3ms (10ms minus [1,6] and [8,10])", got)
	}
	if got := self["par.job"]; got != 12*ms {
		t.Errorf("par.job self %v, want 12ms", got)
	}
}

// seedless runs every op with one fixed seed, as a program that ignored
// its seed would.
type seedless struct{ workload }

func (s seedless) op(_ uint64, o opOpts) (output, error) { return s.workload.op(1, o) }

// The set-up seed check catches an ignored seed and fails the run.
func TestIgnoredSeedFailsSetUp(t *testing.T) {
	w, err := newWorkload("now-cf-dense")
	if err != nil {
		t.Fatal(err)
	}
	c := runConfig{workload: "now-cf-dense", seed: 7, seconds: 0.1, smoke: true}
	s, err := setUp(seedless{w}, c, nil, newHostClock(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.failure == nil || !strings.Contains(s.failure.Error(), "seed") {
		t.Errorf("set-up failure %v, want the seed check to fail", s.failure)
	}
}

// table4-regen's op returns only text, so set-up replays its simulations
// and checks their Results.
func TestTable4SetUpChecksReplayedResults(t *testing.T) {
	w, err := newWorkload("table4-regen")
	if err != nil {
		t.Fatal(err)
	}
	c := runConfig{workload: "table4-regen", seed: 7, seconds: 0.1, smoke: true}
	s, err := setUp(w, c, nil, newHostClock(w.workers()))
	if err != nil {
		t.Fatal(err)
	}
	if s.failure != nil || len(s.ref.results) != 32 || s.ref.events == 0 {
		t.Errorf("failure %v, %d results, %d events; want nil, 32 results, events > 0",
			s.failure, len(s.ref.results), s.ref.events)
	}
}
