package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"testing"

	"rocc/internal/des"
	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/obs/live"
	"rocc/internal/obs/prov"
	"rocc/internal/rng"
)

// observedPinConfig is the fixed-seed observed run whose reports are
// pinned: NOW, 16 nodes, adaptive BF under the chaos-observed fault
// cocktail, with a warmup so the reset path is part of what is pinned.
func observedPinConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 16
	cfg.SamplingPeriod = 2000
	cfg.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{})
	cfg.Duration = 1e6
	cfg.Warmup = 2e5
	cfg.Seed = 5
	cfg.Faults = &faults.Plan{
		Seed: 3, Loss: 0.05, Dup: 0.05, DelayProb: 0.1, AckLoss: 0.05,
		CrashMTBF: 2e5, CrashDowntime: rng.Exponential{MeanVal: 200000},
		SqueezeMTBF: 2e5, SqueezeCapFrac: 0.1,
		Resilience: faults.Resilience{Retransmit: true, Degrade: true},
	}
	return cfg
}

// warmupCounter is a des.Observer counting the events dispatched at or
// before the warmup instant: Model.Run resets accounting once every such
// event has run, so the count is Sim.Dispatched at the reset. It forwards
// to the observer it displaced, if any.
type warmupCounter struct {
	next   des.Observer
	warmup float64
	n      uint64
}

func (w *warmupCounter) EventDispatched(t des.Time, pending int) {
	if t <= w.warmup {
		w.n++
	}
	if w.next != nil {
		w.next.EventDispatched(t, pending)
	}
}

// TestObservedOutputPins pins what an observed run reports, byte for
// byte: the OpenMetrics exposition (run counters, the latency histogram,
// the sampler gauges and the six stage histograms) and the Chrome trace.
// Making the observability layer cheaper must leave both unchanged. The
// events counter must equal the events dispatched after the warmup reset.
func TestObservedOutputPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("output pins are recorded on amd64; %s may round floats differently", runtime.GOARCH)
	}
	const (
		wantExpo  = "3b74129d01d46c13c609c7c99549aa7fccce03d125b8e6894bc6c093a1695f63"
		wantTrace = "a7e355dfac0e5208b1e007e5b7729e8ced3e44dac674823b59e6a87960431a2d"

		// About 1.25x the 78 and 13 allocations measured.
		maxRenderAllocs = 98
		maxParseAllocs  = 17
	)
	cfg := observedPinConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(ObsOptions{Trace: true, Metrics: true, Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	exp := live.NewExporter()
	exp.SetRun(c.Metrics)
	for st := prov.Stage(0); st < prov.NumStages; st++ {
		exp.AddHistogram(m.Provenance().Histogram(st), "per-sample dwell in stage "+st.String())
	}
	wc := &warmupCounter{next: m.Sim.Obs, warmup: cfg.Warmup}
	m.Sim.Obs = wc
	res := m.Run()
	if res.FaultDupInjected == 0 || res.Retransmits == 0 || res.WarmupCarryover == 0 {
		t.Fatalf("faults or warmup did not bite: %d dups, %d retransmits, %d carried over",
			res.FaultDupInjected, res.Retransmits, res.WarmupCarryover)
	}

	if wc.n == 0 || wc.n >= m.Sim.Dispatched {
		t.Fatalf("%d events at or before warmup of %d dispatched", wc.n, m.Sim.Dispatched)
	}
	if got, want := c.Metrics.Events.Value(), m.Sim.Dispatched-wc.n; got != want {
		t.Errorf("rocc_events_total %d, want %d dispatched after the warmup reset", got, want)
	}

	var expo, chrome bytes.Buffer
	if err := exp.WriteOpenMetrics(&expo); err != nil {
		t.Fatal(err)
	}
	if err := c.Sink.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	if got := sum(expo.Bytes()); got != wantExpo {
		t.Errorf("OpenMetrics exposition (%d bytes) SHA-256 %s, want %s", expo.Len(), got, wantExpo)
	}
	if got := sum(chrome.Bytes()); got != wantTrace {
		t.Errorf("Chrome trace (%d bytes) SHA-256 %s, want %s", chrome.Len(), got, wantTrace)
	}

	// Rendering and re-parsing the pinned exposition allocate per family,
	// not per line (the line-by-line exposition code made 4,278 and 3,846
	// allocations on a text of this size).
	renderAllocs := testing.AllocsPerRun(10, func() {
		if err := exp.WriteOpenMetrics(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	parseAllocs := testing.AllocsPerRun(10, func() {
		if _, _, err := live.ParseExpositionFamilies(bytes.NewReader(expo.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if renderAllocs > maxRenderAllocs {
		t.Errorf("WriteOpenMetrics made %.0f allocations, bound %d", renderAllocs, maxRenderAllocs)
	}
	if parseAllocs > maxParseAllocs {
		t.Errorf("ParseExpositionFamilies made %.0f allocations, bound %d", parseAllocs, maxParseAllocs)
	}
}
