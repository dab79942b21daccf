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
			"0974159602a873fe67d5513b370408d187acb0546caf586189fbc563d8163931", 22867, 1800},
		"mpp256-tree-pipe8": {mppTree,
			"ff195ba360246e5e1764764d2509cfdcd01d6276beaf0c0fb8ed3f409e7a6552", 77878, 13700},
		"now16-abf-chaos": {chaos,
			"c444cf8dfc7d9af6755af8d5030f3ef699ec42209552b57d5043a74b5c0ef545", 27114, 1950},
		"mpp8-tree-retransmit": {tree,
			"bd797d88e3b18495671f9748674b3728e4c3e9d22934999acfcc5cdde1eb436c", 17225, 1250},
		"smp16-cf-shared-pool": {smpCF,
			"9ec42cfcc582720446fa4ac32fdd33c896bc3fa1f722ae09bd0d9fea8c91fbc6", 20436, 25400},
		"now32-cf-shared-host": {sharedCF,
			"0f8d1e086b4259fc4b687ef15ae92c3959575b85753c2d7e9938aa9717b98831", 22527, 1800},
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
