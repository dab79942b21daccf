package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"
	"time"

	"rocc/internal/obs"
)

// slowEveryAttempt makes a Chaos runner delay every surviving attempt by
// d. The chaos fixtures use it on the healthy workers so the doomed slot
// is guaranteed dispatches (and hence its quarantine) before the fast
// in-process shards drain the queue — without it the tests race the
// scheduler.
func slowEveryAttempt(c *Chaos, d time.Duration) *Chaos {
	c.Delay = 1.0
	c.DelayFor = func(ctx context.Context) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
	}
	return c
}

// tracedChaosOpts is the shared fixture: a doomed worker (guarantees
// retry and quarantine spans) plus healthy-but-slowed ones.
func tracedChaosOpts(mon *Monitor) Options {
	opt := fastOpts()
	opt.ShardSize = 2
	opt.QuarantineAfter = 2
	opt.Log = io.Discard
	opt.Monitor = mon
	opt.Runners = []Runner{
		&Chaos{Inner: InProcessRunner{ID: 0}, Seed: 7, Crash: 1.0},
		slowEveryAttempt(&Chaos{Inner: InProcessRunner{ID: 1}, Seed: 11}, 5*time.Millisecond),
		slowEveryAttempt(&Chaos{Inner: InProcessRunner{ID: 2}, Seed: 13}, 5*time.Millisecond),
	}
	return opt
}

// The timeline must be purely observational: a chaotic sweep returns the
// same bytes as the local baseline, while its merged timeline contains
// every lifecycle category — dispatch, run, per-job, retry backoff,
// quarantine, and the final merge.
func TestTraceDoesNotChangeResults(t *testing.T) {
	jobs := testJobs(t, 12)
	want := mustJSON(t, baseline(t, jobs))

	mon := NewMonitor()
	got, err := Run(context.Background(), jobs, tracedChaosOpts(mon))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), want) {
		t.Fatal("traced sweep diverges from local baseline")
	}

	cats := mon.Categories()
	for _, want := range []string{"dispatch", "run", "job", "retry", "quarantine", "merge"} {
		if cats[want] == 0 {
			t.Errorf("merged timeline has no %q spans: %v", want, cats)
		}
	}
	if cats["merge"] != 1 {
		t.Errorf("merge spans = %d, want exactly 1", cats["merge"])
	}
}

// The wire protocol must carry trace context out and spans back: a
// traced sweep over real subprocess workers produces worker-side run and
// per-job spans in the merged timeline, with results still byte-equal to
// the baseline.
func TestTraceOverWireProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess workers in -short mode")
	}
	jobs := testJobs(t, 8)
	want := mustJSON(t, baseline(t, jobs))

	mon := NewMonitor()
	opt := fastOpts()
	opt.ShardSize = 2
	opt.MaxShardAttempts = 1 // no speculation: exactly one attempt per shard
	opt.Monitor = mon
	opt.Runners = testSubprocessRunners(t, 2)
	got, err := Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), want) {
		t.Fatal("traced subprocess sweep diverges from local baseline")
	}
	cats := mon.Categories()
	if cats["run"] != 4 {
		t.Errorf("run spans = %d, want 4 (one per shard)", cats["run"])
	}
	if cats["job"] != 8 {
		t.Errorf("job spans = %d, want 8 (one per job)", cats["job"])
	}
}

// The exported timeline must be valid Chrome trace-event JSON (the same
// validator roccviz -check applies) with one process track per worker
// slot plus the coordinator track.
func TestTraceWriteChromeValidates(t *testing.T) {
	jobs := testJobs(t, 12)
	mon := NewMonitor()
	if _, err := Run(context.Background(), jobs, tracedChaosOpts(mon)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := mon.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("WriteChrome output invalid: %v", err)
	}
	if n < mon.Len() {
		t.Fatalf("exported %d events for %d recorded", n, mon.Len())
	}

	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]int{}
	for _, e := range events {
		if e.Ph == "M" && e.Name == "process_name" {
			tracks[e.Args["name"].(string)] = e.PID
		}
	}
	if _, ok := tracks[trackCoordinator]; !ok {
		t.Fatalf("no coordinator track in %v", tracks)
	}
	workerTracks := 0
	pids := map[int]bool{}
	for name, pid := range tracks {
		if pids[pid] {
			t.Fatalf("pid %d reused across tracks: %v", pid, tracks)
		}
		pids[pid] = true
		if name != trackCoordinator && name != trackLocal {
			workerTracks++
		}
	}
	if workerTracks < 2 {
		t.Fatalf("want per-worker tracks for the fleet, got %v", tracks)
	}
}
