// Command perfbench is the repository's benchmark: it runs one workload of
// the ROCC simulator closed-loop for a fixed time, checks every op's output
// and prints the end-to-end metrics, or, with -trace 1, the per-layer
// metrics and a Chrome trace of the benchmark's calls into each layer.
//
//	bash perfbench/run.sh --workload now-cf-dense --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"rocc/internal/des"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool   // shrink op sizes and repetitions, for the benchmark's tests
	traceOut string // Chrome trace path of a traced run
	// corrupt, when set, damages every timed op's output before its check
	// (the tests' injected bad output).
	corrupt func(*output)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one invocation. The last output line carries
// its first four fields; record is printed on the line before.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	record    map[string]any
	counts    map[string]int // sample count behind each metric, where it is a statistic
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.counts[name] = n
}

func main() {
	var c runConfig
	flag.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&c.seed, "seed", 1, "workload seed; every op seed derives from it")
	flag.Float64Var(&c.seconds, "seconds", 20, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.BoolVar(&c.smoke, "smoke", false, "tiny ops and few repetitions (a quick functional check, not a measurement)")
	flag.StringVar(&c.traceOut, "trace-out", "", "Chrome trace path of a traced run (default .bench_build/perfbench-<workload>.trace.json)")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	c.trace = *traceFlag == 1
	if c.traceOut == "" {
		c.traceOut = filepath.Join(".bench_build", "perfbench-"+c.workload+".trace.json")
	}
	r, err := run(c)
	if err != nil {
		fatalf("%v", err)
	}
	if err := printReport(os.Stdout, c, r); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run executes one invocation: set-up, then the timed phase.
func run(c runConfig) (*report, error) {
	w, err := newWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	if c.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	runtime.GOMAXPROCS(w.workers())
	hc := newHostClock(w.workers())
	s, err := setUp(w, c, tr, hc)
	if err != nil {
		return nil, err
	}
	r := &report{Metrics: map[string]metric{}, counts: map[string]int{}}
	lp := timedPhase(w, c, s, tr, hc)
	r.Attempted = 1 + len(lp.ops)
	if s.failure != nil {
		r.Failed = 1
		fmt.Fprintf(os.Stderr, "perfbench: set-up check failed: %v\n", s.failure)
	}
	for _, e := range lp.errs {
		r.Failed++
		if r.Failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", e)
		}
	}
	r.Correct = r.Failed == 0
	r.record = map[string]any{
		"workload": c.workload, "seed": c.seed, "seconds": c.seconds, "trace": c.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(), "go": runtime.Version(),
		"commit": commit(), "results_digest": s.ref.digest(), "ops": len(lp.ops),
		"fail_frac":     float64(r.Failed) / float64(r.Attempted),
		"setup_total_s": s.total.Seconds(), "setup_reps_s": seconds(s.reps),
		"setup_reps_wall_s": seconds(s.wallReps),
		"reference_ms.p50":  quantile(durationsMS(hc.raw), 0.5),
	}
	if !c.trace {
		ms := durationsMS(lp.plain)
		wall := durationsMS(lp.wallPlain)
		r.set("op_ms.p50", quantile(ms, 0.5), "ms", len(ms))
		r.set("op_ms.p90", quantile(ms, 0.9), "ms", len(ms))
		r.set("sim_s_per_host_s", lp.simSec/sum(lp.plain).Seconds(), "1/s", len(lp.ops))
		r.set("max_rss_mb", maxRSSMB(), "MB", 1)
		r.set("setup_s", quantile(seconds(s.reps), 0.5), "s", len(s.reps))
		r.set("ok_frac", 1-float64(r.Failed)/float64(r.Attempted), "ratio", r.Attempted)
		r.record["ops_beyond_p90"] = beyond(ms, quantile(ms, 0.9))
		r.record["wall_op_ms.p50"] = quantile(wall, 0.5)
		r.record["wall_op_ms.p90"] = quantile(wall, 0.9)
		r.record["wall_sim_s_per_host_s"] = lp.simSec / sum(lp.wallPlain).Seconds()
		return r, nil
	}
	if err := layerMetrics(r, w, c, s, lp, tr); err != nil {
		return nil, err
	}
	return r, nil
}

// setup is what set-up leaves for the timed phase.
type setup struct {
	ref      output          // the warm-up op's output, every later op's reference
	reps     []time.Duration // decode + assembly + warm-up op, per repetition, scaled
	wallReps []time.Duration // the same, wall time
	decodes  []time.Duration
	pending  int   // calendar peak length of the warm-up op (traced runs)
	failure  error // a failed determinism or seed check
	total    time.Duration
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 15

// setUp decodes the scenario, assembles the model and runs the warm-up op
// several times with the warm-up seed; the repetitions must agree byte for
// byte. It then checks that a forced heap calendar (and, for table4, a
// serial pool) gives the same bytes and that another seed does not. Each
// repetition is bracketed by host-speed references and its time scaled.
func setUp(w workload, c runConfig, tr *tracer, hc *hostClock) (setup, error) {
	t0 := time.Now()
	var s setup
	reps := setupReps
	if c.smoke {
		reps = 2
	}
	seed := w.opSeed(c.seed, -1)
	root := tr.start("setup", spanRef{})
	defer root.end()
	var first string
	before := hc.reference()
	for k := 0; k < reps; k++ {
		start := time.Now()
		sp := tr.start("scenario.decode", root.ref())
		dec, err := w.decode(scale(c))
		sp.end()
		if err != nil {
			return s, fmt.Errorf("decode scenario: %w", err)
		}
		o := opOpts{tr: tr, parent: root.ref()}
		if k == 0 && c.trace {
			o.pending = &s.pending
		}
		out, err := w.op(seed, o)
		if err != nil {
			return s, fmt.Errorf("warm-up op: %w", err)
		}
		d := time.Since(start)
		after := hc.reference()
		s.reps = append(s.reps, scaled(d, before, after))
		s.wallReps = append(s.wallReps, d)
		before = after
		s.decodes = append(s.decodes, dec)
		if k == 0 {
			s.ref, first = out, out.digest()
			s.failure = w.check(out, out)
		} else if got := out.digest(); got != first && s.failure == nil {
			s.failure = fmt.Errorf("warm-up repetition %d differs from the first (%s vs %s)", k, got, first)
		}
	}
	type variant struct {
		name string
		seed uint64
		o    opOpts
		same bool // the output must equal the warm-up op's
	}
	variants := []variant{
		{"forced heap calendar", seed, opOpts{calendar: des.CalendarHeap}, true},
		{"workload seed + 1", w.opSeed(c.seed+1, -1), opOpts{}, false},
	}
	if _, ok := w.(*table4Workload); ok {
		variants = append(variants, variant{"serial pool", seed, opOpts{serial: true}, true})
	}
	for _, v := range variants {
		if s.failure != nil {
			break
		}
		out, err := w.op(v.seed, v.o)
		if err != nil {
			return s, fmt.Errorf("set-up check %s: %w", v.name, err)
		}
		if same := out.digest() == first; same != v.same {
			s.failure = fmt.Errorf("%s: output identical to the warm-up op = %v, want %v", v.name, same, v.same)
		}
	}
	if t4, ok := w.(*table4Workload); ok && s.failure == nil {
		// A table4 op returns only text. Its simulations' Results are
		// checked once here, by replaying its jobs: every timed op uses
		// this seed and must match the reference text byte for byte.
		jobs, err := t4.jobs(seed)
		if err != nil {
			return s, err
		}
		rp, err := replay(jobs, true, nil)
		if err != nil {
			return s, err
		}
		s.ref.results, s.ref.events, s.pending = rp.results, rp.events, rp.pending
		s.failure = checkResults(rp.results)
	}
	s.total = time.Since(t0)
	return s, nil
}

// scale shrinks simulated durations in smoke runs.
func scale(c runConfig) float64 {
	if c.smoke {
		return 0.1
	}
	return 1
}

// loop is what the timed phase measured. Op times are scaled to host
// speed (hostClock) except where named wall.
type loop struct {
	ops       []time.Duration // every op, in order
	plain     []time.Duration // untraced ops
	wallPlain []time.Duration
	traced    []tracedOp
	errs      []error
	simSec    float64
}

// tracedOp is one op run under spans, with its allocation counts.
type tracedOp struct {
	scaled, newD, runD time.Duration
	events             uint64 // 0 for a table4 op, whose runs are opaque
	mallocs, bytes     uint64
	gcs                uint32
}

// timedPhase runs ops closed-loop, one at a time, until c.seconds have
// passed, with a host-speed reference between consecutive ops. A traced
// run alternates traced and untraced ops so both medians come from the
// same minutes of machine time.
func timedPhase(w workload, c runConfig, s setup, tr *tracer, hc *hostClock) loop {
	var lp loop
	limit := time.Duration(c.seconds * float64(time.Second))
	minOps := 1
	if c.trace {
		minOps = 2 // one traced and one untraced op
	}
	start := time.Now()
	refBefore := hc.reference()
	for i := 0; i < minOps || time.Since(start) < limit; i++ {
		seed := w.opSeed(c.seed, i)
		traced := c.trace && i%2 == 0
		var before, after runtime.MemStats
		var o opOpts
		var root *open
		if traced {
			runtime.ReadMemStats(&before)
			root = tr.start("op", spanRef{})
			o = opOpts{tr: tr, parent: root.ref()}
		}
		t0 := time.Now()
		out, err := w.op(seed, o)
		wall := time.Since(t0)
		if traced {
			root.end()
			runtime.ReadMemStats(&after)
		}
		refAfter := hc.reference()
		d := scaled(wall, refBefore, refAfter)
		refBefore = refAfter
		if traced {
			lp.traced = append(lp.traced, tracedOp{scaled: d, newD: out.newD, runD: out.runD, events: out.events,
				mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc,
				gcs: after.NumGC - before.NumGC})
		} else {
			lp.plain = append(lp.plain, d)
			lp.wallPlain = append(lp.wallPlain, wall)
		}
		lp.ops = append(lp.ops, d)
		lp.simSec += w.simSec()
		if c.corrupt != nil {
			c.corrupt(&out)
		}
		if err == nil {
			err = w.check(out, s.ref)
		}
		if err != nil {
			lp.errs = append(lp.errs, fmt.Errorf("op %d (seed %d): %w", i, seed, err))
		}
	}
	return lp
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// beyond counts the values above x.
func beyond(xs []float64, x float64) int {
	n := 0
	for _, v := range xs {
		if v > x {
			n++
		}
	}
	return n
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commit is the VCS revision the binary was built from, when the build
// saw a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// printReport writes one line per metric, the record line, and the result
// line last.
func printReport(w io.Writer, c runConfig, r *report) error {
	bw := bufio.NewWriter(w)
	mode := "end-to-end"
	if c.trace {
		mode = "traced per-layer"
	}
	fmt.Fprintf(bw, "perfbench %s run: workload=%s seed=%d ops=%v fail_frac=%v\n",
		mode, c.workload, c.seed, r.record["ops"], r.record["fail_frac"])
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(bw, "  %-32s %16.6g %-6s n=%d\n", n, m.Value, m.Unit, r.counts[n])
	}
	counts := map[string]int{}
	for n, k := range r.counts {
		counts[n] = k
	}
	r.record["n"] = counts
	rec, err := json.Marshal(r.record)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "record %s\n", rec)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}
