package live

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rocc/internal/core"
	"rocc/internal/des"
	"rocc/internal/dist"
	"rocc/internal/forward"
	"rocc/internal/obs"
	"rocc/internal/obs/prov"
	"rocc/internal/procs"
	"rocc/internal/stats"
)

// The sweep-counter exposition is pinned byte for byte: every counter
// exactly once, families sorted by name, counter samples carrying the
// _total suffix, and the mandatory # EOF terminator. Renaming or
// re-registering a dist.Monitor counter must show up here.
func TestSweepExpositionGolden(t *testing.T) {
	m := dist.NewMonitor()
	m.Dispatched.Add(12)
	m.Completed.Add(10)
	m.Retries.Add(3)
	m.Redispatches.Add(2)
	m.Duplicates.Add(1)
	m.Timeouts.Add(1)
	m.WorkerFailures.Add(4)
	m.WorkerRestarts.Add(2)
	m.Quarantines.Add(1)
	m.LocalShards.Add(2)

	e := NewExporter()
	e.SetSweep(m.Counters())
	var b strings.Builder
	if err := e.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP rocc_sweep_completed distributed sweep fault-handling counter completed
# TYPE rocc_sweep_completed counter
rocc_sweep_completed_total 10
# HELP rocc_sweep_dispatched distributed sweep fault-handling counter dispatched
# TYPE rocc_sweep_dispatched counter
rocc_sweep_dispatched_total 12
# HELP rocc_sweep_duplicates distributed sweep fault-handling counter duplicates
# TYPE rocc_sweep_duplicates counter
rocc_sweep_duplicates_total 1
# HELP rocc_sweep_local_shards distributed sweep fault-handling counter local_shards
# TYPE rocc_sweep_local_shards counter
rocc_sweep_local_shards_total 2
# HELP rocc_sweep_quarantines distributed sweep fault-handling counter quarantines
# TYPE rocc_sweep_quarantines counter
rocc_sweep_quarantines_total 1
# HELP rocc_sweep_redispatches distributed sweep fault-handling counter redispatches
# TYPE rocc_sweep_redispatches counter
rocc_sweep_redispatches_total 2
# HELP rocc_sweep_retries distributed sweep fault-handling counter retries
# TYPE rocc_sweep_retries counter
rocc_sweep_retries_total 3
# HELP rocc_sweep_timeouts distributed sweep fault-handling counter timeouts
# TYPE rocc_sweep_timeouts counter
rocc_sweep_timeouts_total 1
# HELP rocc_sweep_worker_failures distributed sweep fault-handling counter worker_failures
# TYPE rocc_sweep_worker_failures counter
rocc_sweep_worker_failures_total 4
# HELP rocc_sweep_worker_restarts distributed sweep fault-handling counter worker_restarts
# TYPE rocc_sweep_worker_restarts counter
rocc_sweep_worker_restarts_total 2
# EOF
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if n, err := ParseExposition(strings.NewReader(b.String())); err != nil || n != 10 {
		t.Fatalf("ParseExposition = (%d, %v), want (10, nil)", n, err)
	}
}

// A full run registry — counters, the 41-bucket latency histogram, and
// sampler series — must render to exposition text that parses, with each
// family declared exactly once.
func TestRunExpositionParses(t *testing.T) {
	m := obs.NewMetrics(procs.NewLatencyHistogram())
	m.Generated.Add(100)
	m.Delivered.Add(98)
	for _, v := range []float64{120, 450, 4500, 90000} {
		m.Latency.Observe(v)
	}

	sim := des.New()
	sampler := obs.NewSampler(sim, 10)
	sampler.Probe(m, "pipe depth", func(float64) float64 { return 1.5 })
	sampler.Start()
	sim.Run(15)

	e := NewExporter()
	e.SetRun(m)

	var b strings.Builder
	if err := e.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if _, err := ParseExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("run exposition does not parse: %v\n%s", err, text)
	}
	for _, want := range []string{
		"rocc_generated_total 100",
		"rocc_delivered_total 98",
		"# TYPE rocc_sample_latency_us histogram",
		`rocc_sample_latency_us_bucket{le="+Inf"} 4`,
		"rocc_sample_latency_us_count 4",
		"# TYPE rocc_series_pipe_depth gauge",
		`rocc_series_pipe_depth{sim_time_us="10"} 1.5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if got := strings.Count(text, "# TYPE rocc_generated counter"); got != 1 {
		t.Errorf("rocc_generated declared %d times, want exactly 1", got)
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Error("exposition must end with # EOF")
	}
}

// Registered standalone histograms (the provenance engine's per-stage
// families) export alongside the run registry, parse cleanly, and
// duplicate registrations keep the first.
func TestExpositionStageHistograms(t *testing.T) {
	eng := prov.NewEngine()
	e := NewExporter()
	e.SetRun(obs.NewMetrics(procs.NewLatencyHistogram()))
	for st := prov.Stage(0); st < prov.NumStages; st++ {
		e.AddHistogram(eng.Histogram(st), "per-sample dwell in stage "+st.String())
	}
	// Second registration of the same family name is a no-op.
	e.AddHistogram(eng.Histogram(prov.StagePipeWait), "duplicate")

	var b strings.Builder
	if err := e.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	_, families, err := ParseExpositionFamilies(strings.NewReader(text))
	if err != nil {
		t.Fatalf("stage exposition does not parse: %v\n%s", err, text)
	}
	stage := 0
	for _, f := range families {
		if strings.HasPrefix(f, "rocc_latency_stage_") {
			stage++
		}
	}
	if stage != int(prov.NumStages) {
		t.Fatalf("%d rocc_latency_stage_ families, want %d:\n%v", stage, prov.NumStages, families)
	}
	if got := strings.Count(text, "# TYPE rocc_latency_stage_pipe_wait_us "); got != 1 {
		t.Fatalf("pipe-wait family declared %d times, want 1", got)
	}
}

// Name collisions keep the first registration: a standalone histogram
// that collides with an existing family must not produce a duplicate TYPE.
func TestExpositionDeduplicatesFamilies(t *testing.T) {
	e := NewExporter()
	e.SetSweep(dist.NewMonitor().Counters())
	e.AddHistogram(stats.NewBucketHistogram("sweep_retries", []float64{1, 10}), "colliding name")

	var b strings.Builder
	if err := e.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if got := strings.Count(text, "# TYPE rocc_sweep_retries "); got != 1 {
		t.Fatalf("rocc_sweep_retries declared %d times, want 1:\n%s", got, text)
	}
	if _, err := ParseExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("deduplicated exposition does not parse: %v", err)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"missing EOF":        "# TYPE a counter\na_total 1\n",
		"content after EOF":  "# EOF\nx 1\n",
		"undeclared family":  "mystery_metric 4\n# EOF\n",
		"bad value":          "# TYPE a gauge\na one\n# EOF\n",
		"duplicate TYPE":     "# TYPE a gauge\n# TYPE a gauge\na 1\n# EOF\n",
		"bad name":           "# TYPE a gauge\n0badname 1\n# EOF\n",
		"unterminated label": "# TYPE a gauge\na{x=\"1\" 2\n# EOF\n",
		"unknown type":       "# TYPE a flavor\na 1\n# EOF\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: ParseExposition accepted %q", name, text)
		}
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"pipe depth (node 3)": "pipe_depth__node_3_",
		"ok_name:x9":          "ok_name:x9",
		"9lead":               "_lead",
		"":                    "_",
	} {
		if got := metricName("", in); got != want {
			t.Errorf("metricName(\"\", %q) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	for v, want := range map[float64]string{
		1.5:              "1.5",
		100:              "100",
		math.Inf(1):      "+Inf",
		math.Inf(-1):     "-Inf",
		0.00012345678901: "0.00012345678901",
	} {
		if got := string(appendFloat(nil, v)); got != want {
			t.Errorf("appendFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := string(appendFloat(nil, math.NaN())); got != "NaN" {
		t.Errorf("appendFloat(NaN) = %q", got)
	}
}

// Scraping while a simulated run mutates every source must be free of
// data races (the -race referee for the whole export path).
func TestScrapeWhileMutating(t *testing.T) {
	m := obs.NewMetrics(procs.NewLatencyHistogram())
	sm := dist.NewMonitor()
	e := NewExporter()
	e.SetRun(m)
	e.SetSweep(sm.Counters())

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Generated.Add(1)
			m.Latency.Observe(float64(100 + i%5000))
			sm.Dispatched.Add(1)
		}
	}()
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := e.WriteOpenMetrics(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(strings.NewReader(b.String())); err != nil {
			t.Fatalf("scrape %d does not parse: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// A live scrape reads the events counter while the run is going: the
// counter is stored from the simulator's dispatch count at each sampler
// tick, so mid-run scrapes see it advance in steps and never go back,
// and once Model.Run returns it is exact. This is also the -race referee
// for that read against an observed model's simulation goroutine.
func TestScrapeDuringObservedRun(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Nodes = 4
	cfg.SamplingPeriod = 2000
	cfg.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{})
	cfg.Duration = 2e6
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(core.ObsOptions{Metrics: true, Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExporter()
	e.SetRun(c.Metrics)
	for st := prov.Stage(0); st < prov.NumStages; st++ {
		e.AddHistogram(m.Provenance().Histogram(st), "per-sample dwell in stage "+st.String())
	}
	events := func() uint64 {
		var b strings.Builder
		if err := e.WriteOpenMetrics(&b); err != nil {
			t.Fatal(err)
		}
		text := b.String()
		if _, err := ParseExposition(strings.NewReader(text)); err != nil {
			t.Fatalf("scrape does not parse: %v", err)
		}
		_, v, ok := strings.Cut(text, "\nrocc_events_total ")
		if !ok {
			t.Fatal("scrape lacks rocc_events_total")
		}
		n, err := strconv.ParseUint(v[:strings.IndexByte(v, '\n')], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run()
	}()
	var prev uint64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if n := events(); n < prev {
			t.Fatalf("rocc_events_total went back from %d to %d", prev, n)
		} else {
			prev = n
		}
	}
	if got := events(); got != m.Sim.Dispatched {
		t.Fatalf("rocc_events_total %d after the run, simulator dispatched %d", got, m.Sim.Dispatched)
	}
}
