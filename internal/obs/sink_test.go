package obs

import (
	"bytes"
	"strings"
	"testing"

	"rocc/internal/procs"
	"rocc/internal/resources"
	"rocc/internal/trace"
)

func TestTraceRecordsRoundTrip(t *testing.T) {
	s := NewTraceSink()
	s.addSpan(OccCPU, 0, procs.OwnerApp, 0, 100)
	s.addSpan(OccCPU, 1, procs.OwnerPd, 50, 30)
	s.addSpan(OccNet, 0, procs.OwnerPd, 80, 20)
	s.addSpan(OccCPU, 0, procs.OwnerMain, 200, 10)

	recs := s.TraceRecords()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].StartUS < recs[i-1].StartUS {
			t.Fatal("records not sorted by start time")
		}
	}
	an, err := trace.Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := an.TotalsFor(trace.ProcApplication)
	if app.CPUTimeUS != 100 {
		t.Fatalf("application CPU total %v, want 100", app.CPUTimeUS)
	}
	pd, _ := an.TotalsFor(trace.ProcPd)
	if pd.CPUTimeUS != 30 || pd.NetTimeUS != 20 {
		t.Fatalf("pd totals cpu=%v net=%v, want 30/20", pd.CPUTimeUS, pd.NetTimeUS)
	}
	// Per-unit PIDs: pd span on CPU 1 gets base 200 + unit 1.
	if len(pd.PIDs) != 2 { // 201 (cpu 1) and 200 (net, unit 0)
		t.Fatalf("pd PIDs = %v, want two (per-unit)", pd.PIDs)
	}

	// The text format accepts the export unchanged.
	var buf bytes.Buffer
	if err := trace.WriteText(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round-trip lost records: %d -> %d", len(recs), len(back))
	}
}

// Every procs owner class exports under its Table 1 label and PID block,
// never the fallback for unknown owners.
func TestClassPIDCoversEveryOwner(t *testing.T) {
	want := map[string]struct {
		label string
		pid   int
	}{
		procs.OwnerApp:   {trace.ProcApplication, 100},
		procs.OwnerPd:    {trace.ProcPd, 200},
		procs.OwnerPvm:   {trace.ProcPvmd, 300},
		procs.OwnerOther: {trace.ProcOther, 400},
		procs.OwnerMain:  {trace.ProcParadyn, 500},
	}
	for owner, w := range want {
		s := NewTraceSink()
		s.addSpan(OccCPU, 0, owner, 0, 1)
		recs := s.TraceRecords()
		if len(recs) != 1 || recs[0].Process != w.label || recs[0].PID != w.pid {
			t.Errorf("owner %q: sink gave %+v, want %s/%d", owner, recs, w.label, w.pid)
		}
	}
}

func TestWriteChromeValidates(t *testing.T) {
	c := NewCollector(true, nil)
	c.Occupancy(OccCPU, 0, procs.OwnerApp, 0, 100)
	c.Occupancy(OccNet, 0, procs.OwnerPd, 100, 25)
	sample := resources.Sample{GenTime: 10, Node: 0, Proc: 2, Seq: 7}
	c.SampleGenerated(10, sample, false)
	c.PipePut(3, 10, sample, 1)
	c.PipeGet(3, 40, sample, 0)
	c.MessageDelivered(120, []resources.Sample{sample}, 1)
	c.DaemonCrashed(1, 130, 4)
	c.DaemonRestored(1, 150)

	var buf bytes.Buffer
	if err := c.Sink.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	n, err := ValidateChrome(strings.NewReader(out))
	if err != nil {
		t.Fatalf("export does not validate: %v\n%s", err, out)
	}
	// 2 spans + 7 lifecycle events (the delivery hook records the
	// sample's delivery and its message's) + metadata (cpu 0, network,
	// pipe 3, node-0 samples, node-1 samples) + the sample's flow start
	// and end.
	if want := 2 + 7 + 5 + 2; n != want {
		t.Fatalf("validated %d events, want %d\n%s", n, want, out)
	}
	for _, needle := range []string{`"ph":"X"`, `"ph":"i"`, `"ph":"M"`, "sample p2 #7", "daemon-crash",
		`"ph":"s"`, `"ph":"f"`, `"id":"n0.p2.s7"`, `"bp":"e"`} {
		if !strings.Contains(out, needle) {
			t.Fatalf("export missing %q:\n%s", needle, out)
		}
	}
}

// TestWriteChromeFlowPath drives a full multi-hop sample path — generate,
// pipe, forward, relay arrival, re-forward, delivery — plus a lost sample
// and an injected duplicate delivery, and checks the flow-event contract:
// one "s" per generated sample, "t" steps along the path, exactly one "f"
// even when the sample is delivered twice, and no flow events at all for
// a sample whose generation predates the trace (warmup truncation).
func TestWriteChromeFlowPath(t *testing.T) {
	c := NewCollector(true, nil)
	a := resources.Sample{GenTime: 10, Node: 0, Proc: 0, Seq: 1}
	b := resources.Sample{GenTime: 12, Node: 0, Proc: 0, Seq: 2}
	ghost := resources.Sample{GenTime: 1, Node: 0, Proc: 0, Seq: 0} // not generated in-trace

	c.SampleGenerated(10, a, false)
	c.SampleGenerated(12, b, false)
	c.PipePut(0, 10, a, 1)
	c.PipePut(0, 12, b, 2)
	c.PipeGet(0, 20, a, 1)
	c.PipeGet(0, 20, b, 0)
	batch := []resources.Sample{a, b, ghost}
	c.MessageForwarded(0, 25, batch, 1)
	c.MessageReceived(1, 30, batch, 1)
	c.MessageForwarded(1, 33, batch, 2)
	c.MessageDelivered(40, []resources.Sample{a}, 2)
	c.MessageDelivered(41, []resources.Sample{a}, 2) // injected duplicate: no second flow end
	c.SampleLost(1, 41, b, procs.LossCrash)

	var buf bytes.Buffer
	if err := c.Sink.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if _, err := ValidateChrome(strings.NewReader(out)); err != nil {
		t.Fatalf("flow export does not validate: %v\n%s", err, out)
	}
	if got, want := strings.Count(out, `"ph":"s"`), 2; got != want {
		t.Fatalf("%d flow starts, want %d\n%s", got, want, out)
	}
	if got, want := strings.Count(out, `"ph":"f"`), 2; got != want {
		t.Fatalf("%d flow ends, want %d (one per sample, duplicates excluded)\n%s", got, want, out)
	}
	// Each sample's path: forwarded, arrived, re-forwarded = 3 steps.
	if got, want := strings.Count(out, `"ph":"t"`), 6; got != want {
		t.Fatalf("%d flow steps, want %d\n%s", got, want, out)
	}
	if strings.Contains(out, `"id":"n0.p0.s0"`) {
		t.Fatalf("ghost sample (generated pre-trace) got flow events:\n%s", out)
	}
	if !strings.Contains(out, "sample-lost") {
		t.Fatalf("lost sample not in export:\n%s", out)
	}
}

func TestValidateChromeRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"not JSON":                "perfetto",
		"empty array":             "[]",
		"unknown phase":           `[{"name":"x","ph":"Z","ts":0,"pid":1,"tid":1}]`,
		"negative time":           `[{"name":"x","ph":"X","ts":-5,"pid":1,"tid":1}]`,
		"unnamed event":           `[{"ph":"i","ts":0,"pid":1,"tid":1}]`,
		"flow start without id":   `[{"name":"x","ph":"s","ts":0,"pid":1,"tid":1}]`,
		"flow end without start":  `[{"name":"x","ph":"f","ts":0,"pid":1,"tid":1,"id":"a","cat":"c"}]`,
		"flow step without start": `[{"name":"x","ph":"t","ts":0,"pid":1,"tid":1,"id":"a","cat":"c"}]`,
		"flow cat mismatch": `[{"name":"x","ph":"s","ts":0,"pid":1,"tid":1,"id":"a","cat":"c1"},` +
			`{"name":"x","ph":"f","ts":1,"pid":1,"tid":1,"id":"a","cat":"c2"}]`,
		"duplicate flow start": `[{"name":"x","ph":"s","ts":0,"pid":1,"tid":1,"id":"a","cat":"c"},` +
			`{"name":"x","ph":"s","ts":1,"pid":1,"tid":1,"id":"a","cat":"c"}]`,
		"flow ends twice": `[{"name":"x","ph":"s","ts":0,"pid":1,"tid":1,"id":"a","cat":"c"},` +
			`{"name":"x","ph":"f","ts":1,"pid":1,"tid":1,"id":"a","cat":"c"},` +
			`{"name":"x","ph":"f","ts":2,"pid":1,"tid":1,"id":"a","cat":"c"}]`,
	} {
		if _, err := ValidateChrome(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}

func TestCollectorMetricsCounters(t *testing.T) {
	c := NewCollector(false, NewMetrics(procs.NewLatencyHistogram()))
	sample := resources.Sample{GenTime: 1, Node: 0, Proc: 0, Seq: 0}
	c.SampleGenerated(1, sample, true)
	c.BatchCollected(0, 3, 8)
	c.MessageForwarded(0, 4, []resources.Sample{sample}, 1)
	c.MessageDelivered(5, []resources.Sample{sample}, 1)
	c.SampleLost(0, 6, resources.Sample{Seq: 9}, procs.LossThinned)
	c.DaemonCrashed(0, 6, 2)
	c.MessageRetransmitted(0, 7, 1)
	m := c.Metrics
	for _, tc := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"generated", m.Generated.Value(), 1},
		{"blocked_puts", m.BlockedPuts.Value(), 1},
		{"batches", m.Batches.Value(), 1},
		{"forwards", m.Forwards.Value(), 1},
		{"messages", m.DeliveredMsgs.Value(), 1},
		{"delivered", m.Delivered.Value(), 1},
		{"crashes", m.Crashes.Value(), 1},
		{"retransmits", m.Retransmits.Value(), 1},
		{"lost", m.Lost.Value(), 1},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
	// The latency histogram is the main process's: it observes each
	// delivered sample itself, so the collector must not add a copy.
	if n := m.Latency.Count(); n != 0 {
		t.Errorf("collector observed %d latencies, want 0", n)
	}
	// Trace half disabled: nothing recorded, nothing panics.
	if c.Sink != nil {
		t.Fatal("trace half should be nil")
	}
}

func TestResetAccountingClearsSink(t *testing.T) {
	c := NewCollector(true, NewMetrics(procs.NewLatencyHistogram()))
	c.Occupancy(OccCPU, 0, procs.OwnerApp, 0, 10)
	c.SampleGenerated(1, resources.Sample{}, false)
	c.Metrics.Generated.Add(1)
	c.ResetAccounting()
	if c.Sink.Len() != 0 {
		t.Fatal("sink survived ResetAccounting")
	}
	if c.Metrics.Generated.Value() != 0 {
		t.Fatal("metrics survived ResetAccounting")
	}
}

func TestParseFlowID(t *testing.T) {
	if k, err := parseFlowID("n3.p1.s42"); err != nil || k != (sampleID{3, 1, 42}) {
		t.Fatalf("parseFlowID: got %+v, %v", k, err)
	}
	for _, bad := range []string{"bogus", "n3.p1.s42x", "n+3.p1.s42", "n03.p1.s42", "n3.p1", ""} {
		if _, err := parseFlowID(bad); err == nil {
			t.Errorf("parseFlowID accepted %q", bad)
		}
	}
}
