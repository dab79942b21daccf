package main

import (
	"bytes"
	"math"
	"testing"

	"rocc/internal/core"
	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/obs/prov"
)

// latTestConfigs exercises the reconstruction on a dense direct batch run,
// a tree topology (relay merge legs), and a faulty direct run with losses
// and injected duplicates.
func latTestConfigs() map[string]core.Config {
	base := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Nodes = 4
		cfg.AppProcs = 2
		cfg.SamplingPeriod = 5000
		cfg.Duration = 2e6
		cfg.Warmup = 0 // full paths in the trace: reconstruction is exact
		cfg.Seed = 21
		cfg.Strategy = forward.NewFixedBF(8)
		return cfg
	}

	direct := base()

	tree := base()
	tree.Arch = core.MPP
	tree.Nodes = 8
	tree.Forwarding = forward.Tree

	chaos := base()
	chaos.Faults = &faults.Plan{Seed: 3, Loss: 0.1, Dup: 0.1, CrashMTBF: 1e6}

	return map[string]core.Config{"direct": direct, "tree": tree, "chaos": chaos}
}

// The -lat guarantee: replaying an exported Chrome trace through
// reconstructLatency reproduces the live provenance engine's decomposition
// of the same run — identical delivery/loss/duplicate accounting and
// bit-for-bit per-stage dwell totals (JSON float64 round-trips exactly,
// and both fold deliveries in the same event order).
func TestLatReconstructionMatchesEngine(t *testing.T) {
	for name, cfg := range latTestConfigs() {
		t.Run(name, func(t *testing.T) {
			m, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := m.EnableObservability(core.ObsOptions{Trace: true, Provenance: true})
			if err != nil {
				t.Fatal(err)
			}
			m.Run()
			eng := m.Provenance()
			if eng.Delivered() == 0 {
				t.Fatal("no deliveries; nothing to reconstruct")
			}

			var buf bytes.Buffer
			if err := c.Sink.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			rc, err := reconstructLatency(&buf)
			if err != nil {
				t.Fatal(err)
			}

			if got, want := rc.delivered, int(eng.Delivered()); got != want {
				t.Errorf("delivered: trace %d, engine %d", got, want)
			}
			if got, want := rc.dup, int(eng.DupDelivered()); got != want {
				t.Errorf("duplicate deliveries: trace %d, engine %d", got, want)
			}
			if got, want := rc.lost, int(eng.LostTotal()); got != want {
				t.Errorf("lost: trace %d, engine %d", got, want)
			}
			if got, want := rc.dropped, int(eng.Dropped()); got != want {
				t.Errorf("dropped: trace %d, engine %d", got, want)
			}
			if rc.incomplete != 0 {
				t.Errorf("%d incomplete paths in a warmup-free trace", rc.incomplete)
			}
			if rc.maxCloseErrUS > 1e-6 {
				t.Errorf("per-sample closure error %v us", rc.maxCloseErrUS)
			}
			for i, st := range eng.Stages() {
				if diff := math.Abs(rc.sums[i] - st.SumUS); diff > 1e-9*(1+math.Abs(st.SumUS)) {
					t.Errorf("stage %s: trace sum %v, engine sum %v", st.Stage, rc.sums[i], st.SumUS)
				}
			}
			rows := rc.Rows()
			total := 0.0
			for _, r := range rows {
				total += r.SharePct
				if r.P50US > r.P95US || r.P95US > r.P99US {
					t.Errorf("stage %s: quantiles not monotone: %v %v %v", r.Stage, r.P50US, r.P95US, r.P99US)
				}
			}
			if total < 99.999 || total > 100.001 {
				t.Errorf("shares sum to %v%%", total)
			}
			if name == "tree" && rc.sums[prov.StageMerge] <= 0 {
				t.Error("tree run reconstructed no merge dwell")
			}
			if name == "chaos" && (rc.dup == 0 || rc.lost == 0) {
				t.Errorf("chaos run delivered dup=%d lost=%d; faults not exercised", rc.dup, rc.lost)
			}
		})
	}
}

func TestParseFlowID(t *testing.T) {
	if k, ok := parseFlowID("n3.p1.s42"); !ok || k != (latKey{3, 1, 42}) {
		t.Fatalf("parseFlowID: got %+v ok=%v", k, ok)
	}
	if _, ok := parseFlowID("bogus"); ok {
		t.Fatal("parseFlowID accepted garbage")
	}
}
