// Package experiments contains one generator per table and figure of the
// paper's evaluation (Tables 1-8, Figures 8-31), plus the ablation studies
// called out in DESIGN.md. Each generator reruns the underlying experiment
// — workload characterization, operational analysis, ROCC simulation, or
// the real measurement testbed — and prints the same rows/series the paper
// reports, through internal/report.
//
// Scale: the paper simulated 100-second runs with r=50 replications and
// measured multi-minute benchmark executions. Options scales these down
// (default 10 simulated seconds, r=3, 250 ms testbed runs) so the full
// suite regenerates in minutes; pass larger values for paper-scale runs.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"rocc/internal/des"
	"rocc/internal/forward"
)

// Options scales the experiments.
type Options struct {
	Seed uint64
	// DurationUS is simulated time per run in microseconds.
	DurationUS float64
	// Reps is the replication count for factorial designs.
	Reps int
	// TestbedDuration is wall-clock time per measurement run (Section 5).
	TestbedDuration time.Duration
	// CSV renders figures as CSV rather than aligned text.
	CSV bool
	// Plot additionally renders each figure as an ASCII line chart.
	Plot bool
	// Parallel is the worker-pool size for simulation fan-out: 0 uses
	// every core (par.Workers()), 1 forces the serial path. Output is
	// byte-identical at any setting — seeds are pre-derived and results
	// collected in index order.
	Parallel int
	// Calendar overrides the simulator's future-event-list implementation
	// for every run (roccbench -calendar). Purely a performance knob:
	// results are byte-identical for every kind.
	Calendar des.CalendarKind
	// Policy, when non-nil, overrides the candidate forwarding strategy of
	// the experiments that take one (Experiment.ReadsPolicy; roccbench
	// -policy): ext-adaptive-bf swaps its adaptive candidate for this
	// strategy. Experiments whose policy axis the paper pins (the tables
	// and figures) ignore it, so their output stays byte-identical.
	Policy forward.Strategy
}

// Default returns the fast default scaling.
func Default() Options {
	return Options{
		Seed:            1,
		DurationUS:      10e6,
		Reps:            3,
		TestbedDuration: 250 * time.Millisecond,
	}
}

// Paper returns the paper-scale options (slow: minutes per experiment).
func Paper() Options {
	return Options{
		Seed:            1,
		DurationUS:      100e6,
		Reps:            50,
		TestbedDuration: 5 * time.Second,
	}
}

func (o Options) normalized() Options {
	if o.DurationUS <= 0 {
		o.DurationUS = 10e6
	}
	if o.Reps < 1 {
		o.Reps = 1
	}
	if o.TestbedDuration <= 0 {
		o.TestbedDuration = 250 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Experiment is one runnable table/figure generator.
type Experiment struct {
	// ID is the lookup key, e.g. "table1", "fig17", "ablation-quantum".
	ID string
	// Title describes the experiment.
	Title string
	// Run regenerates the experiment and writes its output.
	Run func(w io.Writer, opt Options) error
	// ReadsPolicy reports that Run reads Options.Policy; every other
	// experiment ignores it.
	ReadsPolicy bool
}

var registry = map[string]Experiment{}
var order []string

func register(id, title string, run func(io.Writer, Options) error) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = Experiment{ID: id, Title: title, Run: run}
	order = append(order, id)
}

// readsPolicy marks the registered experiment id as one whose Run reads
// Options.Policy.
func readsPolicy(id string) {
	e := registry[id]
	e.ReadsPolicy = true
	registry[id] = e
}

// PolicyReaders returns the ids of the experiments that read
// Options.Policy, in registration order.
func PolicyReaders() []string {
	var ids []string
	for _, id := range order {
		if registry[id].ReadsPolicy {
			ids = append(ids, id)
		}
	}
	return ids
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, 0, len(order))
	for _, id := range order {
		out = append(out, registry[id])
	}
	return out
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	out := append([]string(nil), order...)
	sort.Strings(out)
	return out
}

// RunAll executes every experiment in order, writing a banner before each.
func RunAll(w io.Writer, opt Options) error {
	for _, e := range All() {
		if _, err := fmt.Fprintf(w, "\n########## %s — %s ##########\n", e.ID, e.Title); err != nil {
			return err
		}
		if err := e.Run(w, opt); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}
