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
// shares: the SMP pool with the applications and daemons, and NOW node 0
// with its application, its daemon, the PVM daemon and the "other"
// processes, so main's one outstanding request interleaves with every
// other owner's.
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

	return map[string]pinCell{
		"now32-cf-direct": {nowCF,
			"54b8925a7cfe2370a3be4f97f8d142a86555e1ae680cdf7328ebf68b18dc2632", 22442, 1800},
		"mpp256-tree-pipe8": {mppTree,
			"43bc3d42b17324766c0690ba2048a7186d0088544c837b59d162fcd923b9c725", 78096, 13700},
		"now16-abf-chaos": {chaos,
			"a2c5e89dacc1998d2d440339a8f3024a3221e2d14cb924f9f5a435de31047b52", 27810, 1950},
		"mpp8-tree-retransmit": {tree,
			"11e3cf1e307d78a1856fbbb9188e8a4e260ece3c57ca73abe4d0bfbb781ce6fe", 17383, 1250},
		"smp16-cf-shared-pool": {smpCF,
			"77014a7ab5661d04b2688333a4f242533e64b8fa293b4181f57fd493c2e1a5b1", 22032, 25400},
		"now32-cf-shared-host": {sharedCF,
			"3db5f91fe627f50e52d14f22f2c3527b977731a1e163292689f0cd546f776476", 22125, 1800},
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

// TestResultDigestPins pins the bytes and the work of six short runs. A
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
