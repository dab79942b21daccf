package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"rocc/internal/core"
	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/obs"
	"rocc/internal/obs/prov"
	"rocc/internal/procs"
	"rocc/internal/resources"
)

// replayConfigs are a dense direct batch run, a tree topology (relay merge
// legs), and a faulty direct run with losses and injected duplicates.
func replayConfigs() map[string]core.Config {
	base := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Nodes = 4
		cfg.AppProcs = 2
		cfg.SamplingPeriod = 5000
		cfg.Duration = 2e6
		cfg.Warmup = 0
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

// tracedRun runs cfg with tracing and provenance and returns the live
// engine and the replay of the run's exported trace.
func tracedRun(t *testing.T, cfg core.Config) (live, replay *prov.Engine, incomplete int) {
	t.Helper()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(core.ObsOptions{Trace: true, Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	var buf bytes.Buffer
	if err := c.Sink.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	replay, incomplete, err = obs.ReplayChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return m.Provenance(), replay, incomplete
}

// The -lat guarantee: replaying a run's exported trace through a fresh
// engine ends in the live engine's state — every stage summary equal
// under ==, quantiles and exact sums included, and the same accounting.
func TestReplayChromeMatchesEngine(t *testing.T) {
	for name, cfg := range replayConfigs() {
		t.Run(name, func(t *testing.T) {
			live, replay, incomplete := tracedRun(t, cfg)
			if live.Delivered() == 0 {
				t.Fatal("no deliveries; nothing to replay")
			}
			if incomplete != 0 {
				t.Errorf("%d incomplete paths in a warmup-free trace", incomplete)
			}
			ls, rs := live.Stages(), replay.Stages()
			for i := range ls {
				if ls[i] != rs[i] {
					t.Errorf("stage %s:\n live   %+v\n replay %+v", ls[i].Stage, ls[i], rs[i])
				}
			}
			for _, c := range []struct {
				name         string
				live, replay uint64
			}{
				{"delivered", live.Delivered(), replay.Delivered()},
				{"duplicate deliveries", live.DupDelivered(), replay.DupDelivered()},
				{"lost", live.LostTotal(), replay.LostTotal()},
			} {
				if c.live != c.replay {
					t.Errorf("%s: live %d, replay %d", c.name, c.live, c.replay)
				}
			}
			for r := procs.LossThinned; r <= procs.LossGiveUp; r++ {
				if live.Lost(r) != replay.Lost(r) {
					t.Errorf("lost (%s): live %d, replay %d", r, live.Lost(r), replay.Lost(r))
				}
			}
			if live.MaxCloseErrUS() != replay.MaxCloseErrUS() {
				t.Errorf("max closure error: live %v us, replay %v us", live.MaxCloseErrUS(), replay.MaxCloseErrUS())
			}
			if name == "tree" && rs[prov.StageMerge].SumUS <= 0 {
				t.Error("tree run replayed no merge dwell")
			}
			if name == "chaos" && (replay.DupDelivered() == 0 || replay.LostTotal() == 0) {
				t.Errorf("chaos run replayed dup=%d lost=%d; faults not exercised",
					replay.DupDelivered(), replay.LostTotal())
			}
		})
	}
}

// With a warmup the trace starts mid-run: samples generated before the
// boundary and delivered after it cannot be decomposed, so the replay
// counts each of their deliveries as incomplete instead.
func TestReplayChromeWarmup(t *testing.T) {
	for name, cfg := range replayConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.Warmup = 3e5
			live, replay, incomplete := tracedRun(t, cfg)
			if incomplete == 0 {
				t.Fatal("warmup left no carryover deliveries; the case is not exercised")
			}
			got := replay.Delivered() + replay.DupDelivered() + uint64(incomplete)
			if want := live.Delivered() + live.DupDelivered(); got != want {
				t.Errorf("replay delivered+dup+incomplete = %d, live delivered+dup = %d", got, want)
			}
		})
	}
}

// hostileTraces are inputs a replay must survive: identities that would
// size storage if used as indices, seq jumps, steps and ends with no
// start, and a delivered span with no flow. The first six are well
// formed and must replay; the rest must be rejected.
var hostileTraces = []string{
	`[{"name":"sample path","cat":"sampleflow","ph":"s","ts":1,"pid":2000,"id":"n2000000000.p0.s0"},
	  {"name":"sample p0 #0","cat":"sample","ph":"X","ts":1,"dur":5,"pid":2002000000000}]`,
	`[{"name":"sample path","cat":"sampleflow","ph":"s","ts":1,"pid":2000,"id":"n0.p2000000000.s9000000000000000000"},
	  {"name":"pipe-put","cat":"pipe","ph":"i","ts":1,"pid":4000,"args":{"node":0,"proc":2000000000,"seq":9000000000000000000}}]`,
	`[{"name":"sample path","cat":"sampleflow","ph":"s","ts":1,"pid":2000,"id":"n-5.p-1.s-7"},
	  {"name":"sample-forwarded","cat":"sampleflow","ph":"t","ts":2,"pid":2000,"id":"n-5.p-1.s-7","args":{"pd":-3,"hops":1}},
	  {"name":"sample p-1 #-7","cat":"sample","ph":"X","ts":1,"dur":3,"pid":1995}]`,
	`[{"name":"sample path","cat":"sampleflow","ph":"s","ts":1,"pid":2000,"id":"n0.p0.s0"},
	  {"name":"sample path","cat":"sampleflow","ph":"s","ts":2,"pid":2000,"id":"n0.p0.s1000000000"},
	  {"name":"pipe-get","cat":"pipe","ph":"i","ts":3,"pid":4000,"args":{"node":0,"proc":0,"seq":1000000000}},
	  {"name":"sample-forwarded","cat":"sampleflow","ph":"t","ts":4,"pid":2000,"id":"n0.p0.s1000000000","args":{"pd":0,"hops":1}},
	  {"name":"sample p0 #1000000000","cat":"sample","ph":"X","ts":2,"dur":9,"pid":2000},
	  {"name":"sample path","cat":"sampleflow","ph":"f","ts":11,"pid":2000,"id":"n0.p0.s1000000000","bp":"e"},
	  {"name":"sample path","cat":"sampleflow","ph":"f","ts":12,"pid":2000,"id":"n0.p0.s0","bp":"e"}]`,
	`[{"name":"sample-arrived","cat":"sampleflow","ph":"t","ts":4,"pid":2000,"id":"n1.p1.s1","args":{"pd":2,"hops":1}},
	  {"name":"sample path","cat":"sampleflow","ph":"f","ts":5,"pid":2000,"id":"n1.p1.s1","bp":"e"}]`,
	`[{"name":"sample p0 #3","cat":"sample","ph":"X","ts":1,"dur":2,"pid":2000},
	  {"name":"sample p0 #3","cat":"sample","ph":"X","ts":1,"dur":2,"pid":2000}]`,
	`[{"name":"sample path","cat":"sampleflow","ph":"s","ts":1,"pid":2000,"id":"n0.p0.s0"},
	  {"name":"sample path","cat":"sampleflow","ph":"s","ts":1,"pid":2000,"id":"n0.p0.s0"}]`,
	`[{"name":"sample path","cat":"sampleflow","ph":"s","ts":1,"pid":2000,"id":"n0.p0.s0x"}]`,
	`[{"name":"sample p0","cat":"sample","ph":"X","ts":1,"pid":2000}]`,
	`[{"name":"sample-forwarded","cat":"sampleflow","ph":"t","ts":1,"pid":2000,"id":"n0.p0.s0"}]`,
	`[{"name":"sample path","cat":"sampleflow","ph":"s","ts":-1,"pid":2000,"id":"n0.p0.s0"}]`,
	`{"traceEvents":[]}`,
	`[`,
}

// smallTrace exports a hand-driven run of two samples through a
// Collector: one delivered over a relay and one lost in transit.
func smallTrace() []byte {
	c := obs.NewCollector(true, nil)
	a := resources.Sample{GenTime: 10, Node: 0, Proc: 0, Seq: 0}
	b := resources.Sample{GenTime: 12, Node: 0, Proc: 1, Seq: 0}
	c.PipePut(0, 10, a, 1)
	c.SampleGenerated(10, a, false)
	c.PipePut(1, 12, b, 1)
	c.SampleGenerated(12, b, false)
	c.PipeGet(0, 20, a, 0)
	c.PipeGet(1, 20, b, 0)
	c.MessageForwarded(0, 25, []resources.Sample{a, b}, 1)
	c.MessageReceived(1, 40, []resources.Sample{a, b}, 1)
	c.SampleLost(1, 41, b, procs.LossLink)
	c.MessageForwarded(1, 50, []resources.Sample{a}, 2)
	c.MessageDelivered(70, []resources.Sample{a}, 2)
	var buf bytes.Buffer
	if err := c.Sink.WriteChrome(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestReplayChromeHostile(t *testing.T) {
	for i, in := range hostileTraces {
		eng, _, err := obs.ReplayChrome(bytes.NewReader([]byte(in)))
		if valid := i < 6; (err == nil) != valid {
			t.Errorf("trace %d: err = %v, want valid = %v", i, err, valid)
			continue
		}
		if err == nil && eng.WindowSlots() > 2 {
			t.Errorf("trace %d: %d record slots for at most two samples", i, eng.WindowSlots())
		}
	}
}

func TestReplayChromeSmallTrace(t *testing.T) {
	eng, incomplete, err := obs.ReplayChrome(bytes.NewReader(smallTrace()))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Delivered() != 1 || eng.Lost(procs.LossLink) != 1 || incomplete != 0 {
		t.Fatalf("delivered %d, lost(link) %d, incomplete %d; want 1, 1, 0",
			eng.Delivered(), eng.Lost(procs.LossLink), incomplete)
	}
	// a: generated and put at 10, joined in its batch by b's put at 12,
	// drained at 20, forwarded at 25, relayed 40→50, delivered at 70.
	want := [prov.NumStages]float64{
		prov.StagePipeWait:       20 - 12,
		prov.StageBatchResidency: 12 - 10,
		prov.StageDaemonService:  25 - 20,
		prov.StageNetworkTransit: (40 - 25) + (70 - 50),
		prov.StageMerge:          50 - 40,
	}
	for i, s := range eng.Stages() {
		if s.SumUS != want[i] {
			t.Errorf("stage %s: sum %v, want %v", s.Stage, s.SumUS, want[i])
		}
	}
}

// FuzzReplayChrome: whatever the input, the replay returns an error or an
// engine, never panics, sizes no storage by an identity's value, and
// accounts for every delivered-sample span exactly once.
func FuzzReplayChrome(f *testing.F) {
	f.Add(smallTrace())
	for _, s := range hostileTraces {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, incomplete, err := obs.ReplayChrome(bytes.NewReader(data))
		if err != nil {
			if eng != nil {
				t.Fatal("replay returned an engine with an error")
			}
			return
		}
		var events []struct{ Ph, Cat, ID string }
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&events); err != nil {
			t.Fatalf("replay accepted input the event decoder rejects: %v", err)
		}
		spans, starts := 0, 0
		for _, e := range events {
			switch {
			case e.Ph == "X" && e.Cat == "sample":
				spans++
			case e.Ph == "s" && e.Cat == "sampleflow":
				starts++
			}
		}
		if got := int(eng.Delivered()+eng.DupDelivered()) + incomplete; got != spans {
			t.Fatalf("delivered %d + duplicates %d + incomplete %d != %d sample spans",
				eng.Delivered(), eng.DupDelivered(), incomplete, spans)
		}
		if eng.WindowSlots() > starts {
			t.Fatalf("engine spans %d record slots for %d flow starts", eng.WindowSlots(), starts)
		}
	})
}
