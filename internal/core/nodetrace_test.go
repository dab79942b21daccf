package core

import (
	"math"
	"testing"

	"rocc/internal/trace"
)

// nodeTrace runs cfg with the trace attached and returns the Result and
// node's Figure 29 view of it.
func nodeTrace(t *testing.T, cfg Config, node int) (Result, []trace.Record) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableObservability(ObsOptions{Trace: true}); err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	recs, err := m.NodeTraceRecords(node)
	if err != nil {
		t.Fatal(err)
	}
	return res, recs
}

// checkNodeTotals requires the one-node trace's per-class CPU totals to
// equal the model's occupancy accounting exactly (same events, two views).
func checkNodeTotals(t *testing.T, recs []trace.Record, res Result) {
	t.Helper()
	an, err := trace.Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	appTot, _ := an.TotalsFor(trace.ProcApplication)
	if math.Abs(appTot.CPUTimeUS/1e6-res.AppCPUTimePerNodeSec) > 1e-9 {
		t.Errorf("trace app CPU %v s != model %v s", appTot.CPUTimeUS/1e6, res.AppCPUTimePerNodeSec)
	}
	pdTot, _ := an.TotalsFor(trace.ProcPd)
	if math.Abs(pdTot.CPUTimeUS/1e6-res.PdCPUTimePerNodeSec) > 1e-9 {
		t.Errorf("trace Pd CPU %v s != model %v s", pdTot.CPUTimeUS/1e6, res.PdCPUTimePerNodeSec)
	}
	// Main process traced on the dedicated host (Figure 29's second file).
	mainTot, ok := an.TotalsFor(trace.ProcParadyn)
	if !ok || math.Abs(mainTot.CPUTimeUS/1e6-res.MainCPUTimeSec) > 1e-9 {
		t.Errorf("trace main CPU %+v != model %v s", mainTot, res.MainCPUTimeSec)
	}
}

func TestTraceRecordingRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.Duration = 20e6
	res, recs := nodeTrace(t, cfg, 0)
	if len(recs) == 0 {
		t.Fatal("no records captured")
	}
	// Records are valid and sorted.
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
		if i > 0 && r.StartUS < recs[i-1].StartUS {
			t.Fatal("records not sorted")
		}
	}
	checkNodeTotals(t, recs, res)
	// CPU dispatch records never exceed the scheduling quantum.
	for _, r := range recs {
		if r.Resource == trace.CPU && r.DurationUS > cfg.Quantum+1e-9 {
			t.Fatalf("dispatch record longer than quantum: %v", r.DurationUS)
		}
	}
}

// The one-node view drops the warmup, like the Result it is checked
// against: it holds only the dispatch slices that complete after it.
func TestNodeTraceExcludesWarmup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.Warmup = 5e6
	cfg.Duration = 20e6
	res, recs := nodeTrace(t, cfg, 0)
	if len(recs) == 0 {
		t.Fatal("no records captured")
	}
	for _, r := range recs {
		if r.StartUS+r.DurationUS < cfg.Warmup {
			t.Fatalf("record %+v ends inside the warmup", r)
		}
	}
	checkNodeTotals(t, recs, res)
}

// On a multi-node model the view keeps only the traced node's CPU (and,
// for node 0, the dedicated host) plus the network.
func TestNodeTraceKeepsOneNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Duration = 2e6
	cfg.Seed = 7
	for node, wantMain := range []bool{true, false, false, false} {
		_, recs := nodeTrace(t, cfg, node)
		pids := map[int]bool{}
		sawMain, sawNet := false, false
		for _, r := range recs {
			if r.Resource == trace.Network {
				sawNet = true
				continue
			}
			switch r.Process {
			case trace.ProcParadyn:
				sawMain = true
			case trace.ProcApplication, trace.ProcPd:
				pids[r.PID%100] = true
			}
		}
		if len(pids) != 1 || !pids[node] {
			t.Errorf("node %d: CPU records from units %v", node, pids)
		}
		if sawMain != wantMain || !sawNet {
			t.Errorf("node %d: main records %v (want %v), network records %v", node, sawMain, wantMain, sawNet)
		}
	}
}

func TestTraceRecordingPdRequestStatistics(t *testing.T) {
	// Daemon requests (mean 267 << quantum) are rarely split, so the
	// recorded per-record mean approximates the Table 2 parameter.
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.SamplingPeriod = 5000
	cfg.Duration = 50e6
	_, recs := nodeTrace(t, cfg, 0)
	var pd []float64
	for _, r := range recs {
		if r.Process == trace.ProcPd && r.Resource == trace.CPU {
			pd = append(pd, r.DurationUS)
		}
	}
	if len(pd) < 1000 {
		t.Fatalf("only %d pd records", len(pd))
	}
	mean := 0.0
	for _, v := range pd {
		mean += v
	}
	mean /= float64(len(pd))
	if math.Abs(mean-267)/267 > 0.10 {
		t.Fatalf("recorded Pd CPU mean %v, want ~267", mean)
	}
}

func TestTraceRecordingErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 1e6
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NodeTraceRecords(0); err == nil {
		t.Fatal("node trace without an attached trace should fail")
	}
	if _, err := m.EnableObservability(ObsOptions{Metrics: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.NodeTraceRecords(0); err == nil {
		t.Fatal("node trace with metrics only should fail")
	}

	m, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableObservability(ObsOptions{Trace: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.NodeTraceRecords(99); err == nil {
		t.Fatal("out-of-range node should fail")
	}
	if _, err := m.NodeTraceRecords(-1); err == nil {
		t.Fatal("negative node should fail")
	}
}

func TestTraceRecordingUnknownOwnerLabel(t *testing.T) {
	// Owners outside the known set still record, with a fallback label.
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.Duration = 1e5
	cfg.Background = false
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableObservability(ObsOptions{Trace: true}); err != nil {
		t.Fatal(err)
	}
	m.NodeCPUs[0].Submit("mystery", 500, nil)
	m.Run()
	recs, err := m.NodeTraceRecords(0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.Process == "mystery" && r.PID == 900 {
			found = true
		}
	}
	if !found {
		t.Fatal("unknown owner not recorded")
	}
}
