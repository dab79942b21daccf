package dist

import (
	"bytes"
	"context"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"rocc/internal/obs/live"
)

// TestMonitorSnapshotBasics pins the monitor's arithmetic on a scripted
// transition sequence: recovered shards count as done, the ETA follows
// observed durations and live lanes, and finish pins it to zero.
func TestMonitorSnapshotBasics(t *testing.T) {
	m := NewMonitor()
	m.begin(4, 1)
	m.workerStarting("b")
	m.workerReady("b", false)
	m.workerStarting("a")
	m.workerReady("a", false)
	a := m.dispatched("a", 1, 1, false)
	p := m.Snapshot()
	if p.Done != 1 || p.Inflight != 1 || p.Shards != 4 {
		t.Fatalf("after dispatch: %+v", p)
	}
	if p.ETASec != 0 {
		t.Fatalf("ETA before any completion = %v, want 0", p.ETASec)
	}
	if len(p.Workers) != 2 || p.Workers[0].Name != "a" || p.Workers[1].Name != "b" {
		t.Fatalf("workers not sorted by name: %+v", p.Workers)
	}
	if p.Workers[0].State != "running" || p.Workers[0].Shard != 1 {
		t.Fatalf("worker a = %+v, want running shard 1", p.Workers[0])
	}

	m.completed(a, 100*time.Millisecond)
	p = m.Snapshot()
	if p.Done != 2 || p.Inflight != 0 {
		t.Fatalf("after completion: %+v", p)
	}
	// 2 shards left, 0.1s average, 2 live lanes → 0.1s.
	if math.Abs(p.ETASec-0.1) > 1e-9 {
		t.Fatalf("ETA = %v, want 0.1", p.ETASec)
	}
	if p.AvgShardSec != 0.1 {
		t.Fatalf("AvgShardSec = %v, want 0.1", p.AvgShardSec)
	}

	m.quarantine("b", 2, nil)
	p = m.Snapshot()
	if len(p.Quarantined) != 1 || p.Quarantined[0] != "b" {
		t.Fatalf("Quarantined = %v, want [b]", p.Quarantined)
	}
	// One lane left → the ETA doubles.
	if math.Abs(p.ETASec-0.2) > 1e-9 {
		t.Fatalf("ETA after quarantine = %v, want 0.2", p.ETASec)
	}

	m.finish(time.Now(), 4)
	p = m.Snapshot()
	if !p.Finished || p.ETASec != 0 {
		t.Fatalf("after finish: %+v", p)
	}
}

// TestMonitorProgressUnderChaos is the live referee for the /progress
// contract: with a doomed worker (quarantined mid-sweep) and a flaky one,
// a concurrent poller must never see Done decrease or a non-finite ETA,
// and the final snapshot must report the quarantine — all while the
// sweep result stays byte-identical to the local baseline.
func TestMonitorProgressUnderChaos(t *testing.T) {
	jobs := testJobs(t, 12)
	want := mustJSON(t, baseline(t, jobs))

	mon := NewMonitor()
	opt := fastOpts()
	opt.ShardSize = 2
	opt.QuarantineAfter = 2
	opt.Log = io.Discard
	opt.Monitor = mon
	// The healthy lanes are slowed so the doomed one is guaranteed the
	// dispatches its quarantine needs before the queue drains.
	opt.Runners = []Runner{
		&Chaos{Inner: InProcessRunner{ID: 0}, Seed: 7, Crash: 1.0}, // every attempt dies
		slowEveryAttempt(&Chaos{Inner: InProcessRunner{ID: 1}, Seed: 11, Crash: 0.3}, 5*time.Millisecond),
		slowEveryAttempt(&Chaos{Inner: InProcessRunner{ID: 2}, Seed: 13}, 5*time.Millisecond),
	}

	stop := make(chan struct{})
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		prevDone := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := mon.Snapshot()
			if p.Done < prevDone {
				t.Errorf("Done decreased: %d -> %d", prevDone, p.Done)
				return
			}
			prevDone = p.Done
			if math.IsNaN(p.ETASec) || math.IsInf(p.ETASec, 0) || p.ETASec < 0 {
				t.Errorf("non-finite ETA: %v", p.ETASec)
				return
			}
			if p.Inflight < 0 || p.Waiting < 0 || p.Done > p.Shards {
				t.Errorf("inconsistent snapshot: %+v", p)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	got, err := Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-pollerDone
	if !bytes.Equal(mustJSON(t, got), want) {
		t.Fatal("monitored chaos sweep diverges from local baseline")
	}

	p := mon.Snapshot()
	if p.Done != p.Shards || p.Shards != 6 {
		t.Fatalf("final Done/Shards = %d/%d, want 6/6", p.Done, p.Shards)
	}
	if !p.Finished || p.ETASec != 0 {
		t.Fatalf("final snapshot not finished: %+v", p)
	}
	found := false
	for _, q := range p.Quarantined {
		if q == "chaos(inproc-0)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("doomed worker not in Quarantined: %v", p.Quarantined)
	}
	for _, w := range p.Workers {
		if w.Name == "chaos(inproc-0)" && w.State != "quarantined" {
			t.Fatalf("doomed worker state = %q, want quarantined", w.State)
		}
	}
	if p.Failures == 0 || p.Retries == 0 {
		t.Fatalf("chaos sweep recorded no failures/retries: %+v", p)
	}

	// One meaning per counter: every /progress fault count equals its
	// exported rocc_sweep_*_total counter.
	exp := live.NewExporter()
	exp.SetSweep(mon.Counters())
	var b strings.Builder
	if err := exp.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	exported := map[string]int{}
	for _, line := range strings.Split(b.String(), "\n") {
		name, v, ok := strings.Cut(line, "_total ")
		if !ok || !strings.HasPrefix(name, "rocc_sweep_") {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("exported %q: %v", line, err)
		}
		exported[strings.TrimPrefix(name, "rocc_sweep_")] = n
	}
	for _, c := range []struct {
		key     string
		got     int
		counter string
	}{
		{"local_fallback", p.LocalFallback, "local_shards"},
		{"retries", p.Retries, "retries"},
		{"speculative", p.Speculative, "redispatches"},
		{"duplicates", p.Duplicates, "duplicates"},
		{"timeouts", p.Timeouts, "timeouts"},
		{"failures", p.Failures, "worker_failures"},
	} {
		if want, ok := exported[c.counter]; !ok || c.got != want {
			t.Errorf("/progress %s = %d, exported %s = %d (present %v)", c.key, c.got, c.counter, want, ok)
		}
	}

	// The views agree with each other too: per-worker failures sum to the
	// total, every completion is remote or a routed local one, and every
	// retry and every routed shard left its span on the timeline.
	sum := 0
	for _, w := range p.Workers {
		sum += w.Failures
	}
	if sum != p.Failures {
		t.Errorf("per-worker failures sum to %d, /progress failures = %d", sum, p.Failures)
	}
	if got := exported["completed"] + p.LocalFallback; got != p.Done {
		t.Errorf("completed + local_fallback = %d, done = %d", got, p.Done)
	}
	cats := mon.Categories()
	if cats["retry"] != p.Retries || cats["local"] != p.LocalFallback {
		t.Errorf("timeline retry/local spans = %d/%d, /progress retries/local_fallback = %d/%d",
			cats["retry"], cats["local"], p.Retries, p.LocalFallback)
	}
}
