package testbed

import (
	"testing"
	"time"

	"rocc/internal/forward"
)

func clusterCfg(nodes int, tree bool) Config {
	return Config{
		Nodes:          nodes,
		Kernel:         "is",
		KernelSize:     1 << 11,
		SamplingPeriod: 2 * time.Millisecond,
		Duration:       150 * time.Millisecond,
		Seed:           1,
		Tree:           tree,
	}
}

func TestClusterDirect(t *testing.T) {
	res, err := Run(clusterCfg(3, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 3 {
		t.Fatalf("%d node results", len(res.Nodes))
	}
	total := 0
	for i, nr := range res.Nodes {
		if nr.App.Steps == 0 {
			t.Fatalf("node %d did no work", i)
		}
		if nr.Daemon.SamplesForwarded != nr.App.SamplesGenerated {
			t.Fatalf("node %d forwarded %d of %d", i, nr.Daemon.SamplesForwarded, nr.App.SamplesGenerated)
		}
		total += nr.Daemon.SamplesForwarded
	}
	if res.Collector.Samples != total {
		t.Fatalf("collector got %d of %d", res.Collector.Samples, total)
	}
	if res.MeanDaemonBusySec <= 0 {
		t.Fatal("no average daemon overhead")
	}
	if len(res.Relays) != 0 || res.TotalRelayBusySec != 0 {
		t.Fatal("direct forwarding should have no relays")
	}
}

func TestClusterTree(t *testing.T) {
	res, err := Run(clusterCfg(7, true))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, nr := range res.Nodes {
		total += nr.Daemon.SamplesForwarded
	}
	if res.Collector.Samples != total {
		t.Fatalf("tree delivered %d of %d samples", res.Collector.Samples, total)
	}
	if len(res.Relays) != 7 {
		t.Fatalf("%d relays", len(res.Relays))
	}
	// Non-leaf relays did real merge work (§4.4.2's extra tree cost).
	if res.TotalRelayBusySec <= 0 {
		t.Fatal("tree relays recorded no merge work")
	}
	// The root relay (node 0) carries its subtree's traffic: nodes 1..6
	// route through relays 0-2, so relay 0 must have seen messages.
	if res.Relays[0].Messages == 0 {
		t.Fatal("root relay idle")
	}
	// Every non-root sample passes >= 1 relay: total relayed samples must
	// be at least the samples of nodes 1..6.
	relayed := 0
	for _, r := range res.Relays {
		relayed += r.Samples
	}
	nonRoot := total - res.Nodes[0].Daemon.SamplesForwarded
	if relayed < nonRoot {
		t.Fatalf("relays carried %d samples, want >= %d", relayed, nonRoot)
	}
}

func TestClusterBFReducesMeanOverheadWrites(t *testing.T) {
	cf := clusterCfg(2, false)
	cfRes, err := Run(cf)
	if err != nil {
		t.Fatal(err)
	}
	bf := cf
	bf.Strategy = forward.NewFixedBF(16)
	bfRes, err := Run(bf)
	if err != nil {
		t.Fatal(err)
	}
	cfWrites, bfWrites := 0, 0
	for i := range cfRes.Nodes {
		cfWrites += cfRes.Nodes[i].Daemon.Writes
		bfWrites += bfRes.Nodes[i].Daemon.Writes
	}
	if cfWrites < 8*bfWrites {
		t.Fatalf("batching not amortizing cluster syscalls: %d vs %d", cfWrites, bfWrites)
	}
}

func TestClusterErrors(t *testing.T) {
	bad := []Config{
		{},
		{Nodes: 1},
		{Nodes: -1, Duration: time.Millisecond, SamplingPeriod: time.Millisecond, Kernel: "is"},
		{Nodes: 1, Duration: time.Millisecond},
		{Nodes: 1, Duration: time.Millisecond, SamplingPeriod: time.Millisecond,
			Kernel: "is", Strategy: forward.NewAdaptiveBF(forward.ControllerConfig{})},
		{Nodes: 1, Duration: time.Millisecond, SamplingPeriod: time.Millisecond,
			Kernel: "nope"},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestClusterSingleNodeTree(t *testing.T) {
	// Tree with one node degenerates to direct.
	res, err := Run(clusterCfg(1, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Collector.Samples == 0 {
		t.Fatal("no samples")
	}
}
