package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/procs"
	"rocc/internal/resources"
	"rocc/internal/rng"
)

// provChaosConfigs are the fault cocktails the decomposition must survive
// with exact accounting. Duplication rides the direct topology only: on a
// tree, a duplicated copy can interleave with the original's relay legs
// in ways a per-identity record cannot always tell apart (see DESIGN.md).
func provChaosConfigs() map[string]Config {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Nodes = 4
		cfg.AppProcs = 2
		cfg.Duration = 4e6
		cfg.Warmup = 0 // exact in-flight identity needs no carryover
		cfg.Seed = 11
		cfg.Strategy = forward.NewFixedBF(8)
		return cfg
	}

	direct := base()
	direct.Faults = &faults.Plan{Seed: 3, Loss: 0.1, Dup: 0.1, CrashMTBF: 1e6}

	retrans := base()
	retrans.Faults = &faults.Plan{
		Seed: 5, Loss: 0.15, AckLoss: 0.1, CrashMTBF: 1.5e6,
		Resilience: faults.Resilience{Retransmit: true, RetryBudget: 2},
	}

	tree := base()
	tree.Arch = MPP
	tree.Nodes = 8
	tree.Forwarding = forward.Tree
	tree.Faults = &faults.Plan{
		Seed: 7, Loss: 0.08, CrashMTBF: 1.2e6,
		Resilience: faults.Resilience{Retransmit: true, Degrade: true},
	}

	squeeze := base()
	squeeze.PipeCapacity = 16
	squeeze.Faults = &faults.Plan{
		Seed: 9, SqueezeMTBF: 4e5, CrashMTBF: 2e6,
		Resilience: faults.Resilience{Degrade: true},
	}

	// The perfbench chaos-observed cocktail: crashes with long outages and
	// squeezes back samples up until degradation thins them, inside the
	// pipe put that woke the daemon — before the application's
	// SampleGenerated hook fires. It samples every 1.5 ms, not perfbench's
	// 2 ms: at 2 ms whether any batch is thinned turns on the draws (seed
	// 11 thins none), while at 1.5 ms it thins on 10 of 11 model and fault
	// seeds tried.
	thinning := DefaultConfig()
	thinning.Nodes = 16
	thinning.SamplingPeriod = 1500
	thinning.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{})
	thinning.Duration = 4e6
	thinning.Warmup = 0
	thinning.Seed = 11
	thinning.Faults = &faults.Plan{
		Seed: 3, Loss: 0.05, Dup: 0.05, DelayProb: 0.1, AckLoss: 0.05,
		CrashMTBF: 2e5, CrashDowntime: rng.Exponential{MeanVal: 200000},
		SqueezeMTBF: 2e5, SqueezeCapFrac: 0.1,
		Resilience: faults.Resilience{Retransmit: true, Degrade: true},
	}

	return map[string]Config{
		"direct-dup": direct, "retransmit": retrans, "tree": tree, "squeeze": squeeze,
		"degrade-thinning": thinning,
	}
}

// The decomposition guarantee under fault injection: for every delivered
// sample the stage sum equals the measured latency (within float
// tolerance), the engine's totals reconcile exactly with the aggregate
// latency histogram (which sees every delivery, duplicates included), no
// in-flight record leaks, and the whole thing is deterministic.
func TestProvenanceChaosReconciliation(t *testing.T) {
	for name, cfg := range provChaosConfigs() {
		t.Run(name, func(t *testing.T) {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := m.EnableObservability(ObsOptions{Metrics: true, Provenance: true})
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run()
			eng := m.Provenance()
			if eng.Delivered() == 0 {
				t.Fatal("no deliveries; chaos config too hostile to test anything")
			}

			// Per-sample closure: Σ stages == latency for every sample.
			if errUS := eng.MaxCloseErrUS(); errUS > 1e-6 {
				t.Errorf("per-sample closure error %v us", errUS)
			}
			// Aggregate reconciliation with the latency histogram.
			hist := c.Metrics.Latency
			if got, want := eng.Delivered()+eng.DupDelivered(), hist.Count(); got != want {
				t.Errorf("deliveries %d (first %d + dup %d), histogram count %d",
					got, eng.Delivered(), eng.DupDelivered(), want)
			}
			histSum := hist.Snapshot().Sum
			provSum := eng.LatencySumUS() + eng.DupLatencySumUS()
			if diff := math.Abs(histSum - provSum); diff > 1e-6*(1+math.Abs(histSum)) {
				t.Errorf("latency totals: prov %v, histogram %v", provSum, histSum)
			}
			if diff := math.Abs(eng.StageSumUS() - eng.LatencySumUS()); diff > 1e-6*(1+eng.LatencySumUS()) {
				t.Errorf("stage total %v vs latency total %v", eng.StageSumUS(), eng.LatencySumUS())
			}
			// No leaks: every generated sample is delivered, lost, or still
			// in a pipe/daemon/network (in-flight), exactly.
			accounted := eng.Delivered() + eng.LostTotal() + uint64(eng.InFlight())
			if accounted != eng.Generated() {
				t.Errorf("accounting leak: generated %d, accounted %d (delivered %d lost %d in-flight %d)",
					eng.Generated(), accounted, eng.Delivered(), eng.LostTotal(), eng.InFlight())
			}
			if name == "degrade-thinning" && eng.Lost(procs.LossThinned) == 0 {
				t.Error("degrade-thinning cell thinned nothing; coverage lost")
			}
			if name == "direct-dup" && eng.DupDelivered() == 0 {
				t.Error("dup plan delivered no duplicates; chaos coverage lost")
			}
			if res.SamplesReceived > 0 && len(res.LatencyStages) != 6 {
				t.Errorf("Result carries %d stages, want 6", len(res.LatencyStages))
			}

			// Determinism: an identical run decomposes byte-identically.
			m2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m2.EnableObservability(ObsOptions{Metrics: true, Provenance: true}); err != nil {
				t.Fatal(err)
			}
			res2 := m2.Run()
			if !reflect.DeepEqual(res, res2) {
				t.Errorf("results differ across identical runs:\n%+v\n%+v", res, res2)
			}
			if !reflect.DeepEqual(m.Provenance().Stages(), m2.Provenance().Stages()) {
				t.Errorf("stage summaries differ across identical runs")
			}
		})
	}
}

// Enabling provenance must not change the simulation: the Result of a
// provenance-observed run is byte-identical to a plain run once the
// LatencyStages field it adds is stripped.
func TestProvenanceLeavesResultUnchanged(t *testing.T) {
	cfgs := provChaosConfigs()
	plainCfg := DefaultConfig()
	plainCfg.Nodes = 4
	plainCfg.Duration = 4e6
	plainCfg.Warmup = 1e6
	plainCfg.Strategy = forward.NewFixedBF(16)
	cfgs["plain-warmup"] = plainCfg

	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			m1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			plain := m1.Run()

			m2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m2.EnableObservability(ObsOptions{Provenance: true}); err != nil {
				t.Fatal(err)
			}
			observed := m2.Run()
			if len(observed.LatencyStages) == 0 && observed.SamplesReceived > 0 {
				t.Fatal("provenance run carries no stages")
			}
			stripped := observed
			stripped.LatencyStages = nil
			if !reflect.DeepEqual(plain, stripped) {
				t.Fatalf("provenance changed the Result:\nplain:    %+v\nobserved: %+v", plain, stripped)
			}
			// Byte-level: the JSON encodings match exactly, so the CI cmp
			// gate (jq del(.results[].LatencyStages)) holds by construction.
			j1, err := json.Marshal(plain)
			if err != nil {
				t.Fatal(err)
			}
			j2, err := json.Marshal(stripped)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1, j2) {
				t.Fatalf("JSON differs:\n%s\n%s", j1, j2)
			}
		})
	}
}

// The Result's stage shares must sum to ~100% and the dominant stage of a
// dense BF cell must be batch residency — the experiment gate's claim,
// pinned here at unit scale.
func TestProvenanceStagesOnResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.AppProcs = 4
	cfg.Duration = 4e6
	cfg.SamplingPeriod = 10000
	cfg.Strategy = forward.NewFixedBF(64)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableObservability(ObsOptions{Provenance: true}); err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if len(res.LatencyStages) != 6 {
		t.Fatalf("got %d stages", len(res.LatencyStages))
	}
	share := map[string]float64{}
	total := 0.0
	for _, st := range res.LatencyStages {
		share[st.Stage] = st.SharePct
		total += st.SharePct
	}
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("shares sum to %v, want 100", total)
	}
	if share["batch-residency"] <= share["daemon-service"] {
		t.Errorf("dense BF cell: batch-residency %v%% should dominate daemon-service %v%%",
			share["batch-residency"], share["daemon-service"])
	}
}

// With metrics and provenance attached, a delivery observes the latency
// histogram and the six stage histograms and closes the sample's window
// slot: none of it allocates, so an observed run's per-sample cost stays
// flat. The main process reports each message through one
// MessageDelivered hook, for one sample or for a batch of 18 (about what
// adaptive BF forwards under the chaos cocktail); the stage rows the
// provenance engine folds under one lock reuse their storage.
func TestObservedDeliveryDoesNotAllocate(t *testing.T) {
	for _, size := range []int{1, 18} {
		cfg := DefaultConfig()
		cfg.Nodes = 2
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := m.EnableObservability(ObsOptions{Metrics: true, Provenance: true})
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]resources.Sample, size)
		seq := 0
		lifecycle := func() {
			for i := range batch {
				s := resources.Sample{GenTime: float64(seq), Node: 1, Seq: seq}
				batch[i] = s
				c.PipePut(0, s.GenTime, s, 1)
				c.SampleGenerated(s.GenTime, s, false)
				c.PipeGet(0, s.GenTime+2, s, 0)
				seq++
			}
			now := batch[size-1].GenTime
			c.MessageForwarded(1, now+3, batch, 1)
			c.MessageDelivered(now+9, batch, 1)
		}
		lifecycle()
		if allocs := testing.AllocsPerRun(1000, lifecycle); allocs > 0 {
			t.Fatalf("%d-sample messages: observed lifecycle allocated %.2f objects per message", size, allocs)
		}
		eng := m.Provenance()
		if eng.Delivered() != uint64(seq) || eng.InFlight() != 0 {
			t.Fatalf("%d-sample messages: delivered %d of %d, in-flight %d", size, eng.Delivered(), seq, eng.InFlight())
		}
		if got := c.Metrics.Delivered.Value(); got != uint64(seq) {
			t.Fatalf("%d-sample messages: delivered counter %d, want %d", size, got, seq)
		}
		if got := c.Metrics.DeliveredMsgs.Value(); got != uint64(seq/size) {
			t.Fatalf("%d-sample messages: messages counter %d, want %d", size, got, seq/size)
		}
	}
}
