package prov

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"rocc/internal/procs"
	"rocc/internal/resources"
)

func sample(proc, seq int) resources.Sample {
	return resources.Sample{GenTime: 10, Node: 0, Proc: proc, Seq: seq}
}

// Direct path with a blocked put and a two-sample batch: the decomposition
// must reproduce each boundary delta exactly and telescope to the
// measured latency.
func TestExactDecompositionDirectPath(t *testing.T) {
	e := NewEngine()
	a, b := sample(0, 1), sample(1, 1)
	b.GenTime = 14

	e.SampleGenerated(10, a, true)
	e.PipePut(12, a) // blocked for 2us
	e.SampleGenerated(14, b, false)
	e.PipePut(14, b)
	e.PipeGet(30, a)
	e.PipeGet(30, b)
	batch := []resources.Sample{a, b}
	e.BatchForwarded(0, 35, batch, 1)
	e.SampleDelivered(50, a, 40)
	e.SampleDelivered(50, b, 36)

	// Sample a: pipe-wait (12-10)+(30-14)=18, batch-residency 14-12=2,
	// daemon-service 35-30=5, network 50-35=15.
	// Sample b: pipe-wait (14-14)+(30-14)=16, batch-residency 0,
	// daemon-service 5, network 15.
	want := map[Stage]float64{
		StagePipeWait:       18 + 16,
		StageBatchResidency: 2 + 0,
		StageDaemonService:  5 + 5,
		StageNetworkTransit: 15 + 15,
		StageMerge:          0,
		StageMainReceipt:    0,
	}
	for st, w := range want {
		if got := e.Stages()[st].SumUS; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s sum = %v, want %v", st, got, w)
		}
	}
	if e.MaxCloseErrUS() > 1e-9 {
		t.Errorf("closure error %v", e.MaxCloseErrUS())
	}
	if e.StageSumUS() != e.LatencySumUS() || e.LatencySumUS() != 76 {
		t.Errorf("stage total %v, latency total %v, want both 76", e.StageSumUS(), e.LatencySumUS())
	}
	if e.InFlight() != 0 || e.Delivered() != 2 {
		t.Errorf("in-flight %d delivered %d", e.InFlight(), e.Delivered())
	}
}

// Tree path: forward, relay arrival, relay re-forward, delivery. Network
// legs and the merge dwell accumulate separately.
func TestTreePathMergeLeg(t *testing.T) {
	e := NewEngine()
	a := sample(0, 1)
	e.SampleGenerated(10, a, false)
	e.PipePut(10, a)
	e.PipeGet(30, a)
	batch := []resources.Sample{a}
	e.BatchForwarded(0, 35, batch, 1)
	e.BatchArrived(1, 40, batch, 1)   // leg 1: 5us
	e.BatchForwarded(1, 44, batch, 2) // merge: 4us
	e.SampleDelivered(50, a, 40)      // leg 2: 6us

	ss := e.Stages()
	if got := ss[StageNetworkTransit].SumUS; got != 11 {
		t.Errorf("network %v, want 11", got)
	}
	if got := ss[StageMerge].SumUS; got != 4 {
		t.Errorf("merge %v, want 4", got)
	}
	if e.MaxCloseErrUS() > 1e-9 {
		t.Errorf("closure error %v", e.MaxCloseErrUS())
	}
}

// Injected duplicate copies share the sample's identity. The hop guard
// must keep a duplicate arrival (same depth, already off the network)
// and a duplicate delivery from corrupting the decomposition.
func TestDuplicateCopiesDoNotCorrupt(t *testing.T) {
	e := NewEngine()
	a := sample(0, 1)
	e.SampleGenerated(10, a, false)
	e.PipePut(10, a)
	e.PipeGet(30, a)
	batch := []resources.Sample{a}
	e.BatchForwarded(0, 35, batch, 1)
	e.SampleDelivered(50, a, 40) // original closes the record
	e.SampleDelivered(55, a, 45) // duplicate copy arrives later
	e.SampleLost(0, 60, a, procs.LossCrash)

	if e.Delivered() != 1 || e.DupDelivered() != 1 || e.DupLost() != 1 {
		t.Fatalf("delivered %d dup %d duplost %d", e.Delivered(), e.DupDelivered(), e.DupLost())
	}
	if e.LatencySumUS() != 40 || e.DupLatencySumUS() != 45 {
		t.Fatalf("latency sums %v/%v", e.LatencySumUS(), e.DupLatencySumUS())
	}
	if e.MaxCloseErrUS() > 1e-9 {
		t.Fatalf("closure error %v", e.MaxCloseErrUS())
	}
}

// A duplicate still in flight: the guard rejects an arrival at the wrong
// depth and a stale re-forward, so legs never double-count.
func TestHopGuardRejectsStaleCopies(t *testing.T) {
	e := NewEngine()
	a := sample(0, 1)
	e.SampleGenerated(10, a, false)
	e.PipePut(10, a)
	e.PipeGet(30, a)
	batch := []resources.Sample{a}
	e.BatchForwarded(0, 35, batch, 1)
	e.BatchArrived(1, 40, batch, 1)
	e.BatchArrived(1, 42, batch, 1)   // dup arrival at same depth: ignored
	e.BatchForwarded(1, 44, batch, 2) // merge 4us
	e.BatchForwarded(1, 46, batch, 2) // dup re-forward: ignored
	e.SampleDelivered(50, a, 40)

	ss := e.Stages()
	if got := ss[StageMerge].SumUS; got != 4 {
		t.Errorf("merge %v, want 4 (stale re-forward must be ignored)", got)
	}
	if got := ss[StageNetworkTransit].SumUS; got != 11 {
		t.Errorf("network %v, want 11", got)
	}
	if e.MaxCloseErrUS() > 1e-9 {
		t.Errorf("closure error %v", e.MaxCloseErrUS())
	}
}

// Losses close records without stage observations, by reason.
func TestLossAndDropAccounting(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 3; i++ {
		s := sample(0, i)
		e.SampleGenerated(10, s, false)
		e.PipePut(10, s)
	}
	e.SampleLost(0, 20, sample(0, 0), procs.LossThinned)
	e.SampleLost(0, 21, sample(0, 1), procs.LossCrash)
	if e.Lost(procs.LossThinned) != 1 || e.Lost(procs.LossCrash) != 1 {
		t.Fatalf("loss accounting: thinned %d crash %d",
			e.Lost(procs.LossThinned), e.Lost(procs.LossCrash))
	}
	if e.LostTotal() != 2 || e.InFlight() != 1 {
		t.Fatalf("total %d in-flight %d", e.LostTotal(), e.InFlight())
	}
	if e.Stages()[StagePipeWait].SumUS != 0 {
		t.Fatal("lost samples must not observe stages")
	}
}

// lifecycle drives one sample from generation to delivery.
func lifecycle(e *Engine, batch []resources.Sample, seq int) {
	s := sample(0, seq)
	batch[0] = s
	e.SampleGenerated(10, s, false)
	e.PipePut(10, s)
	e.PipeGet(12, s)
	e.BatchForwarded(0, 13, batch, 1)
	e.SampleDelivered(20, s, 10)
}

// One sample at a time: after the first lifecycle the process's window
// reuses its single slot, so a steady-state lifecycle allocates nothing.
func TestSteadyLifecycleAllocatesNothing(t *testing.T) {
	e := NewEngine()
	batch := make([]resources.Sample, 1)
	seq := 0
	lifecycle(e, batch, seq)
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		lifecycle(e, batch, seq)
	})
	if allocs > 0 {
		t.Fatalf("steady lifecycle allocated %.2f objects per sample", allocs)
	}
	if e.InFlight() != 0 || e.WindowSlots() != 0 {
		t.Fatalf("after delivery: in-flight %d, window slots %d", e.InFlight(), e.WindowSlots())
	}
	s := sample(0, seq+1)
	e.SampleGenerated(10, s, false)
	if e.InFlight() != 1 || e.WindowSlots() != 1 {
		t.Fatalf("one open sample: in-flight %d, window slots %d", e.InFlight(), e.WindowSlots())
	}
	if got := cap(e.wins[0][0].recs); got != 1 {
		t.Fatalf("window capacity %d, want 1 slot", got)
	}
	if sz := unsafe.Sizeof(record{}); sz != 64 {
		t.Fatalf("record is %d bytes, want 64", sz)
	}
}

// A sample held open pins its window's head: the window spans every later
// seq until the sample closes, then shrinks back to the open records.
func TestHeldOpenSampleGrowsAndShrinksWindow(t *testing.T) {
	e := NewEngine()
	held := sample(0, 0)
	e.SampleGenerated(10, held, false)
	e.PipePut(10, held)
	batch := make([]resources.Sample, 1)
	for seq := 1; seq <= 100; seq++ {
		lifecycle(e, batch, seq)
	}
	if e.InFlight() != 1 || e.WindowSlots() != 101 {
		t.Fatalf("held open: in-flight %d, window slots %d, want 1 and 101", e.InFlight(), e.WindowSlots())
	}
	e.SampleLost(0, 30, held, procs.LossCrash)
	if e.InFlight() != 0 || e.WindowSlots() != 0 {
		t.Fatalf("after close: in-flight %d, window slots %d, want 0 and 0", e.InFlight(), e.WindowSlots())
	}
	// Two held samples, closed out of order: the window shrinks only as
	// its head closes, and compaction keeps later seqs addressable.
	a, b := sample(0, 101), sample(0, 102)
	e.SampleGenerated(10, a, false)
	e.SampleGenerated(10, b, false)
	for seq := 103; seq < 400; seq++ {
		lifecycle(e, batch, seq)
	}
	e.SampleLost(0, 30, b, procs.LossThinned)
	if e.WindowSlots() != 299 {
		t.Fatalf("head still open: window slots %d, want 299", e.WindowSlots())
	}
	e.SampleLost(0, 30, a, procs.LossThinned)
	if e.InFlight() != 0 || e.WindowSlots() != 0 || e.Delivered() != 397 || e.LostTotal() != 3 {
		t.Fatalf("in-flight %d slots %d delivered %d lost %d",
			e.InFlight(), e.WindowSlots(), e.Delivered(), e.LostTotal())
	}
}

// The application fires SampleGenerated after Pipe.Put returns, and Put's
// callbacks can end the sample first (a woken daemon drains and thins
// it). The late SampleGenerated must count the sample without reopening
// its record.
func TestLateGenerateDoesNotReopen(t *testing.T) {
	e := NewEngine()
	s := sample(0, 7)
	e.PipePut(10, s)
	e.PipeGet(10, s)
	e.SampleLost(0, 10, s, procs.LossThinned)
	e.SampleGenerated(10, s, false)
	if e.Generated() != 1 || e.Lost(procs.LossThinned) != 1 || e.InFlight() != 0 || e.WindowSlots() != 0 {
		t.Fatalf("generated %d thinned %d in-flight %d slots %d",
			e.Generated(), e.Lost(procs.LossThinned), e.InFlight(), e.WindowSlots())
	}
}

// ResetAccounting clears aggregates but keeps in-flight records (warmup
// carryover) and preserves histogram identity for live exporters.
func TestResetKeepsInFlightAndHistogramIdentity(t *testing.T) {
	e := NewEngine()
	h := e.Histogram(StagePipeWait)
	a, b := sample(0, 1), sample(0, 2)
	b.GenTime = 15
	e.SampleGenerated(10, a, false)
	e.PipePut(10, a)
	e.PipeGet(12, a)
	e.BatchForwarded(0, 13, []resources.Sample{a}, 1)
	e.SampleDelivered(20, a, 10)
	e.SampleGenerated(15, b, false) // still in flight at reset
	e.PipePut(15, b)

	e.ResetAccounting()
	if e.Delivered() != 0 || e.StageSumUS() != 0 || e.Generated() != 0 {
		t.Fatal("aggregates survived reset")
	}
	if e.InFlight() != 1 {
		t.Fatalf("in-flight %d after reset, want 1 (carryover)", e.InFlight())
	}
	if e.Histogram(StagePipeWait) != h {
		t.Fatal("reset replaced the histogram object")
	}
	if h.Count() != 0 {
		t.Fatal("histogram content survived reset")
	}
	// The carryover sample decomposes over its full path.
	e.PipeGet(30, b)
	e.BatchForwarded(0, 31, []resources.Sample{b}, 1)
	e.SampleDelivered(40, b, 25)
	if e.Delivered() != 1 || math.Abs(e.StageSumUS()-25) > 1e-9 {
		t.Fatalf("carryover decomposition: delivered %d stage sum %v", e.Delivered(), e.StageSumUS())
	}
}

// Stage labels, metric names, and summaries stay aligned with NumStages.
func TestStageNaming(t *testing.T) {
	seen := map[string]bool{}
	for i := Stage(0); i < NumStages; i++ {
		if i.String() == "unknown" {
			t.Fatalf("stage %d has no label", i)
		}
		if seen[i.metricName()] {
			t.Fatalf("duplicate metric name %s", i.metricName())
		}
		seen[i.metricName()] = true
	}
	e := NewEngine()
	if got := len(e.Stages()); got != int(NumStages) {
		t.Fatalf("Stages() returned %d entries, want %d", got, NumStages)
	}
}

// BatchDelivered is SampleDelivered over a message's samples, with one
// histogram lock: the same stages, sums, counters and histogram contents,
// a duplicate copy inside the batch included.
func TestBatchDeliveredMatchesPerSample(t *testing.T) {
	run := func(deliver func(e *Engine, t float64, batch []resources.Sample)) *Engine {
		e := NewEngine()
		var batch []resources.Sample
		for seq := 0; seq < 40; seq++ {
			s := resources.Sample{GenTime: float64(3 * seq), Node: seq % 2, Proc: seq % 3, Seq: seq}
			e.SampleGenerated(s.GenTime, s, false)
			e.PipePut(s.GenTime+float64(seq%4), s)
			e.PipeGet(130, s)
			batch = append(batch, s)
		}
		e.BatchForwarded(0, 131.5, batch, 1)
		deliver(e, 170.25, batch[:25])
		deliver(e, 171, append(batch[25:], batch[3])) // batch[3] again: a duplicate
		return e
	}
	perSample := run(func(e *Engine, t float64, batch []resources.Sample) {
		for _, s := range batch {
			e.SampleDelivered(t, s, t-s.GenTime)
		}
	})
	batched := run((*Engine).BatchDelivered)

	if got, want := batched.Stages(), perSample.Stages(); !slices.Equal(got, want) {
		t.Errorf("stages %+v, want %+v", got, want)
	}
	if batched.Delivered() != 40 || batched.DupDelivered() != 1 ||
		batched.LatencySumUS() != perSample.LatencySumUS() ||
		batched.DupLatencySumUS() != perSample.DupLatencySumUS() ||
		batched.MaxCloseErrUS() != perSample.MaxCloseErrUS() || batched.InFlight() != 0 {
		t.Errorf("batched delivered %d (dup %d), latency %v + %v, close err %v, in flight %d; per sample %v + %v, %v",
			batched.Delivered(), batched.DupDelivered(), batched.LatencySumUS(), batched.DupLatencySumUS(),
			batched.MaxCloseErrUS(), batched.InFlight(),
			perSample.LatencySumUS(), perSample.DupLatencySumUS(), perSample.MaxCloseErrUS())
	}
	for st := Stage(0); st < NumStages; st++ {
		if got, want := batched.Histogram(st).Snapshot(), perSample.Histogram(st).Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s histogram %+v, want %+v", st, got, want)
		}
	}
}
