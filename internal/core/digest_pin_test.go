package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/rng"
)

// pinCell is one fixed-seed run and what it must reproduce: the bytes of
// its Result, the exact number of events it dispatches, and a ceiling on
// the heap allocations of m.Run.
type pinCell struct {
	cfg        Config
	digest     string // SHA-256 of the JSON-encoded Result
	dispatched uint64 // m.Sim.Dispatched after the run, exactly
	// maxAllocs is about 1.25x the measured count: one extra allocation
	// per delivered sample at least doubles the direct-path cell.
	maxAllocs uint64
}

// digestPinCells are short fixed-seed runs over the sample paths a
// speed-only change must not disturb: the dense CF direct path, the
// engine-bound MPP tree with blocking pipes, adaptive BF under the full
// fault cocktail, and a resilient tree whose links lose, duplicate and
// retransmit messages. Two more saturate the main process on a CPU it
// shares: the SMP pool with the applications and daemons, and a NOW node
// with the daemon, the application and main's consultant and UI threads,
// so main's queued requests interleave with every other owner's.
func digestPinCells() map[string]pinCell {
	nowCF := DefaultConfig()
	nowCF.Nodes = 32
	nowCF.SamplingPeriod = 1000
	nowCF.Duration = 2e5

	mppTree := DefaultConfig()
	mppTree.Arch = MPP
	mppTree.Nodes = 256
	mppTree.Forwarding = forward.Tree
	mppTree.PipeCapacity = 8
	mppTree.Duration = 2e5

	chaos := DefaultConfig()
	chaos.Nodes = 16
	chaos.SamplingPeriod = 2000
	chaos.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{})
	chaos.Duration = 1e6
	chaos.Faults = &faults.Plan{
		Seed: 3, Loss: 0.05, Dup: 0.05, DelayProb: 0.1, AckLoss: 0.05,
		CrashMTBF: 2e5, CrashDowntime: rng.Exponential{MeanVal: 200000},
		SqueezeMTBF: 2e5, SqueezeCapFrac: 0.1,
		Resilience: faults.Resilience{Retransmit: true, Degrade: true},
	}

	tree := DefaultConfig()
	tree.Arch = MPP
	tree.Nodes = 8
	tree.AppProcs = 2
	tree.Forwarding = forward.Tree
	tree.Strategy = forward.NewFixedBF(8)
	tree.SamplingPeriod = 5000
	tree.Duration = 1e6
	tree.Faults = &faults.Plan{
		Seed: 7, Loss: 0.1, Dup: 0.1,
		Resilience: faults.Resilience{Retransmit: true, RTO: 5000},
	}

	smpCF := DefaultConfig()
	smpCF.Arch = SMP
	smpCF.Nodes = 16
	smpCF.AppProcs = 16
	smpCF.SamplingPeriod = 1000
	smpCF.Duration = 5e5

	sharedCF := nowCF
	sharedCF.DedicatedHost = false
	sharedCF.MainThreads = MainThreadModel{ConsultantPeriod: 20000, UIPeriod: 10000}

	return map[string]pinCell{
		"now32-cf-direct": {nowCF,
			"ed54dfac837e9f7c6d3c24487f4686f4a634c9e2be5a5869e5dcdb52d170301d", 22866, 3600},
		"mpp256-tree-pipe8": {mppTree,
			"53966b27e4d8e1520a291aef07f67858198fc067579c5287be1a769ac35bedb5", 77878, 24400},
		"now16-abf-chaos": {chaos,
			"017d574a30b8e87800b2f3e8b4edfa5c5caf1b58434add4dac07016f4c2319d7", 27114, 3200},
		"mpp8-tree-retransmit": {tree,
			"fa85c5cd30b0051b2ad35d128e501a8dd4572f3b922388198f51fce615948710", 17225, 1900},
		"smp16-cf-shared-pool": {smpCF,
			"bc5537a9581e01dbfaf9280a577cc019242ab1e226d57707aa5b249a303b8adc", 16025, 9300},
		"now32-cf-shared-host-threads": {sharedCF,
			"97c9a19e8759974c5c9ef3c20033252952b89303d875925f551a41d61a41eba9", 22385, 1800},
	}
}

// resultDigest is the SHA-256 of the JSON-encoded Result, encoded the way
// perfbench's results_digest encodes each Result of an op.
func resultDigest(t *testing.T, r Result) string {
	t.Helper()
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(r); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestResultDigestPins pins the bytes and the work of four short runs. A
// change that only makes the simulator faster must leave every digest and
// event count unchanged; a change that alters Results on purpose
// re-records them and says why. Allocations are deterministic for a fixed
// seed, so the bound catches a per-sample or per-event allocation that a
// wall-clock gate would miss. Other architectures may fuse floating-point
// operations differently, so the pins are amd64-only.
func TestResultDigestPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pins are recorded on amd64; %s may round floats differently", runtime.GOARCH)
	}
	for name, pin := range digestPinCells() {
		t.Run(name, func(t *testing.T) {
			// AllocsPerRun runs once to warm up and once measured, so it
			// needs one fresh model per call.
			var models [2]*Model
			for i := range models {
				m, err := New(pin.cfg)
				if err != nil {
					t.Fatal(err)
				}
				models[i] = m
			}
			var res Result
			runs := 0
			allocs := uint64(testing.AllocsPerRun(1, func() {
				res = models[runs].Run()
				runs++
			}))
			m := models[1]
			if pin.cfg.Faults != nil && (res.FaultDupInjected == 0 || res.Retransmits == 0 || res.DupMessagesDiscarded == 0) {
				t.Fatalf("faults did not bite: %d dups, %d retransmits, %d discarded",
					res.FaultDupInjected, res.Retransmits, res.DupMessagesDiscarded)
			}
			if got := resultDigest(t, res); got != pin.digest {
				t.Errorf("Result digest %s, want %s", got, pin.digest)
			}
			if m.Sim.Dispatched != pin.dispatched {
				t.Errorf("dispatched %d events, want exactly %d", m.Sim.Dispatched, pin.dispatched)
			}
			if allocs > pin.maxAllocs {
				t.Errorf("m.Run made %d heap allocations, bound %d", allocs, pin.maxAllocs)
			}
		})
	}
}
