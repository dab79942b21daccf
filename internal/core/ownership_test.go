package core

import (
	"testing"

	"rocc/internal/faults"
	"rocc/internal/forward"
)

// ownershipFamilies are the fault families a pooled message must survive:
// each one drops, copies, delays or holds messages on a different path.
// Duplication runs with retransmission on, because only a resilient link
// discards duplicates by id; unprotected duplicates are counted twice by
// design.
func ownershipFamilies() map[string]faults.Plan {
	return map[string]faults.Plan{
		"loss":        {Seed: 2, Loss: 0.15},
		"duplication": {Seed: 3, Dup: 0.2, Resilience: faults.Resilience{Retransmit: true}},
		"delay":       {Seed: 4, DelayProb: 0.3},
		"ack-loss":    {Seed: 5, AckLoss: 0.3, Resilience: faults.Resilience{Retransmit: true, RTO: 5000}},
		"crash":       {Seed: 6, CrashMTBF: 3e5},
		"squeeze":     {Seed: 7, SqueezeMTBF: 2e5, SqueezeCapFrac: 0.1},
		"retransmit-degrade": {Seed: 8, Loss: 0.2, CrashMTBF: 5e5,
			Resilience: faults.Resilience{Retransmit: true, Degrade: true, RTO: 5000}},
	}
}

// ownershipTopologies are the direct and tree forwarding paths; the tree
// runs without provenance, so duplication can run there too.
func ownershipTopologies() map[string]Config {
	direct := DefaultConfig()
	direct.Nodes = 6
	direct.AppProcs = 2
	direct.SamplingPeriod = 4000
	direct.Strategy = forward.NewFixedBF(4)
	direct.Duration = 2e6
	direct.Warmup = 2e5

	tree := direct
	tree.Arch = MPP
	tree.Nodes = 7
	tree.Forwarding = forward.Tree
	tree.Strategy = forward.NewCF()

	return map[string]Config{"direct": direct, "tree": tree}
}

// runAndDrain runs cfg, then stops every sampling timer and lets the model
// run on for 10 simulated seconds, long enough for every in-flight message
// to be received, lost, or given up on, so every message is back in the
// pool.
func runAndDrain(t *testing.T, cfg Config) (Result, *Model) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	for _, a := range m.Apps {
		a.SamplingPeriod = 1e12 // the pending tick fires once more, then never
	}
	m.Sim.Run(m.Sim.Now() + 10e6)
	return res, m
}

// Every fault family on both topologies passes the ownership checks: no
// hand-off panics on a released message, the run replays byte for byte,
// no sample is delivered that was not generated, and once the run drains
// every message the pool ever made is free again — none leaked, none
// released twice.
func TestMessageOwnershipUnderFaults(t *testing.T) {
	for topo, base := range ownershipTopologies() {
		for family, plan := range ownershipFamilies() {
			t.Run(topo+"/"+family, func(t *testing.T) {
				cfg := base
				plan := plan
				cfg.Faults = &plan
				res, m := runAndDrain(t, cfg)
				again, _ := runAndDrain(t, cfg)
				if a, b := resultDigest(t, res), resultDigest(t, again); a != b {
					t.Fatalf("same seed, different Results: %s vs %s", a, b)
				}
				if res.SamplesReceived > res.SamplesGenerated+res.WarmupCarryover {
					t.Fatalf("%d samples received > %d generated + %d carried over",
						res.SamplesReceived, res.SamplesGenerated, res.WarmupCarryover)
				}
				if res.SamplesReceived == 0 {
					t.Fatal("no sample reached the main process")
				}
				if free, made := m.Msgs.Free(), m.Msgs.Allocated(); free != made {
					t.Fatalf("after draining, %d of %d pooled messages are free", free, made)
				}
			})
		}
	}
}
