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

// digestPinConfigs are short fixed-seed runs over the four sample paths a
// speed-only change must not disturb: the dense CF direct path, the
// engine-bound MPP tree with blocking pipes, adaptive BF under the full
// fault cocktail, and a resilient tree whose links lose, duplicate and
// retransmit messages.
func digestPinConfigs() map[string]Config {
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

	return map[string]Config{
		"now32-cf-direct":      nowCF,
		"mpp256-tree-pipe8":    mppTree,
		"now16-abf-chaos":      chaos,
		"mpp8-tree-retransmit": tree,
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

// TestResultDigestPins pins the bytes of four short runs. A change that
// only makes the simulator faster must leave every value unchanged; a
// change that alters Results on purpose re-records them and says why.
// Other architectures may fuse floating-point operations differently, so
// the pins are amd64-only.
func TestResultDigestPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pins are recorded on amd64; %s may round floats differently", runtime.GOARCH)
	}
	want := map[string]string{
		"now32-cf-direct":      "33ef95ff0273081ee44404a54644c9e75d4eb2169e6e6c66dbf583dc03ad9af7",
		"mpp256-tree-pipe8":    "b944e1149cfb05909afe75a9a316b521d7fb623142d0c5dc5806b36d12566a86",
		"now16-abf-chaos":      "0cdb261f11ad1cf75cf803381319640c6bc668820d366d2220a85279ed129859",
		"mpp8-tree-retransmit": "7bf5f776790bfca0e5c389c1603add81f85f768c3be02aff5a2133646f0ca052",
	}
	for name, cfg := range digestPinConfigs() {
		t.Run(name, func(t *testing.T) {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run()
			if cfg.Faults != nil && (res.FaultDupInjected == 0 || res.Retransmits == 0 || res.DupMessagesDiscarded == 0) {
				t.Fatalf("faults did not bite: %d dups, %d retransmits, %d discarded",
					res.FaultDupInjected, res.Retransmits, res.DupMessagesDiscarded)
			}
			if got := resultDigest(t, res); got != want[name] {
				t.Errorf("Result digest %s, want %s", got, want[name])
			}
		})
	}
}
