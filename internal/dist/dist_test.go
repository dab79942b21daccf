package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rocc/internal/core"
	"rocc/internal/scenario"
)

// TestMain doubles as the worker binary: when re-executed with
// ROCC_DIST_WORKER=1 the process speaks the wire protocol on
// stdin/stdout instead of running tests — the same self-exec trick
// roccsweep uses in production.
func TestMain(m *testing.M) {
	if os.Getenv("ROCC_DIST_WORKER") == "1" {
		if err := ServeWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testJobs builds a small deterministic job list from the smoke grid —
// real simulations, short durations.
func testJobs(t testing.TB, n int) []Job {
	t.Helper()
	jobs := SweepJobs(scenario.SmokeGrid(), 1, 1, 0.02)
	if len(jobs) < n {
		t.Fatalf("smoke grid yields %d jobs, test wants %d", len(jobs), n)
	}
	return jobs[:n]
}

// baseline runs the jobs on the pure local path — the reference every
// distributed configuration must reproduce byte for byte.
func baseline(t testing.TB, jobs []Job) []core.Result {
	t.Helper()
	res, err := Run(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatalf("local baseline: %v", err)
	}
	return res
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fastOpts are fault-handling options tuned for test wall-clock: quick
// retries, deadlines generous enough for a real shard but short enough
// that an injected hang dies fast.
func fastOpts() Options {
	return Options{
		RetryBaseDelay:  time.Millisecond,
		RetryMaxDelay:   5 * time.Millisecond,
		InitialDeadline: 5 * time.Second,
		MinDeadline:     time.Second,
	}
}

// TestLocalMatchesReplicationPath pins the determinism contract at its
// root: the dist job chain reproduces core.RunReplications exactly.
func TestLocalMatchesReplicationPath(t *testing.T) {
	g := scenario.SmokeGrid()
	const reps = 3
	jobs := SweepJobs(g, 7, reps, 0.02)
	got, err := Run(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range g.Cells[:4] {
		cfg, err := cell.Spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Duration = 0.02 * 1e6
		cfg.Seed = core.DeriveSeed(7, core.SeedStreamFactorial, uint64(i))
		want, err := core.RunReplications(cfg, reps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i*reps:(i+1)*reps], want.Results) {
			t.Fatalf("cell %d (%s): dist results diverge from core.RunReplications", i, cell.ID)
		}
	}
}

// TestDeterministicUnderFaults is the headline guarantee: with crashes,
// hangs, delays, and start failures injected deterministically, the
// merged output is byte-identical to the single-host run at every worker
// count.
func TestDeterministicUnderFaults(t *testing.T) {
	jobs := testJobs(t, 12)
	want := mustJSON(t, baseline(t, jobs))

	for _, workers := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			runners := make([]Runner, workers)
			for i := range runners {
				runners[i] = &Chaos{
					Inner:     InProcessRunner{ID: i},
					Seed:      uint64(100 + i),
					Crash:     0.25,
					Hang:      0.05,
					StartFail: 0.2,
				}
			}
			opt := fastOpts()
			opt.Runners = runners
			opt.MinDeadline = 500 * time.Millisecond
			var log bytes.Buffer
			opt.Log = &log
			got, err := Run(context.Background(), jobs, opt)
			if err != nil {
				t.Fatalf("Run: %v\nlog:\n%s", err, log.String())
			}
			if !bytes.Equal(mustJSON(t, got), want) {
				t.Fatalf("output diverges from local baseline under faults\nlog:\n%s", log.String())
			}
		})
	}
}

// attemptLog counts attempts per shard across all workers.
type attemptLog struct {
	mu sync.Mutex
	n  map[int]int
}

func (a *attemptLog) next(shard int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == nil {
		a.n = make(map[int]int)
	}
	k := a.n[shard]
	a.n[shard]++
	return k
}

// hookRunner injects scripted behavior per (shard, attempt).
type hookRunner struct {
	name string
	log  *attemptLog
	hook func(ctx context.Context, shard, attempt int) error
}

func (r hookRunner) Name() string { return r.name }
func (r hookRunner) Start(ctx context.Context) (Worker, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return hookWorker{r}, nil
}

type hookWorker struct{ r hookRunner }

func (w hookWorker) Run(ctx context.Context, id int, jobs []Job) ([]core.Result, error) {
	if w.r.hook != nil {
		if err := w.r.hook(ctx, id, w.r.log.next(id)); err != nil {
			return nil, err
		}
	}
	return inProcWorker{}.Run(ctx, id, jobs)
}

func (hookWorker) Close() error { return nil }

// TestSpeculativeRedispatch wedges shard 0's first attempt forever (no
// deadline pressure) and checks an idle worker duplicates it: the sweep
// completes through speculation, and the straggler's eventual death
// changes nothing.
func TestSpeculativeRedispatch(t *testing.T) {
	jobs := testJobs(t, 6)
	want := mustJSON(t, baseline(t, jobs))

	log := &attemptLog{}
	hook := func(ctx context.Context, shard, attempt int) error {
		if shard == 0 && attempt == 0 {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	opt := fastOpts()
	opt.InitialDeadline = time.Minute // speculation, not the deadline, must resolve the straggler
	opt.MinDeadline = time.Minute
	opt.Runners = []Runner{
		hookRunner{name: "stall", log: log, hook: hook},
		hookRunner{name: "fast", log: log, hook: hook},
	}
	opt.Monitor = NewMonitor()
	got, err := Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), want) {
		t.Fatal("output diverges from local baseline with a wedged straggler")
	}
	if n := opt.Monitor.Redispatches.Value(); n < 1 {
		t.Fatalf("Redispatches = %d, want >= 1", n)
	}
}

// TestHangKilledByDeadline wedges one attempt until its per-attempt
// deadline expires; the driver must count the timeout, retry the shard,
// and still match the baseline.
func TestHangKilledByDeadline(t *testing.T) {
	jobs := testJobs(t, 5)
	want := mustJSON(t, baseline(t, jobs))

	log := &attemptLog{}
	opt := fastOpts()
	opt.Runners = []Runner{hookRunner{name: "hang-once", log: log,
		hook: func(ctx context.Context, shard, attempt int) error {
			if shard == 2 && attempt == 0 {
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		}}}
	opt.MinDeadline = 300 * time.Millisecond
	opt.InitialDeadline = 2 * time.Second
	opt.Monitor = NewMonitor()
	got, err := Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), want) {
		t.Fatal("output diverges from local baseline after a deadline-killed hang")
	}
	if n := opt.Monitor.Timeouts.Value(); n < 1 {
		t.Fatalf("Timeouts = %d, want >= 1", n)
	}
	if n := opt.Monitor.Retries.Value(); n < 1 {
		t.Fatalf("Retries = %d, want >= 1", n)
	}
}

// TestQuarantineAndLocalFallback retires every worker (all attempts
// fail), forcing graceful degradation: the sweep completes locally with
// a warning, still byte-identical.
func TestQuarantineAndLocalFallback(t *testing.T) {
	jobs := testJobs(t, 6)
	want := mustJSON(t, baseline(t, jobs))

	alwaysFail := func(ctx context.Context, shard, attempt int) error {
		return fmt.Errorf("injected failure (shard %d attempt %d)", shard, attempt)
	}
	log := &attemptLog{}
	opt := fastOpts()
	opt.Runners = []Runner{
		hookRunner{name: "bad-0", log: log, hook: alwaysFail},
		hookRunner{name: "bad-1", log: log, hook: alwaysFail},
	}
	opt.QuarantineAfter = 2
	opt.Monitor = NewMonitor()
	var buf bytes.Buffer
	opt.Log = &buf
	got, err := Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatalf("Run: %v\nlog:\n%s", err, buf.String())
	}
	if !bytes.Equal(mustJSON(t, got), want) {
		t.Fatal("fallback output diverges from local baseline")
	}
	if n := opt.Monitor.Quarantines.Value(); n != 2 {
		t.Fatalf("Quarantines = %d, want 2", n)
	}
	// Every shard routed to the fallback completes there, with its span.
	routed, ran := opt.Monitor.LocalShards.Value(), opt.Monitor.Categories()["local"]
	if routed == 0 || int(routed) != ran {
		t.Fatalf("LocalShards = %d, local-fallback spans = %d; want equal and > 0", routed, ran)
	}
	if !strings.Contains(buf.String(), "quarantined") {
		t.Fatalf("log lacks quarantine warning:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "locally") {
		t.Fatalf("log lacks local-fallback warning:\n%s", buf.String())
	}
}

// TestNoLocalFallback: with degradation disabled, losing the fleet is an
// error, not a silent local run.
func TestNoLocalFallback(t *testing.T) {
	jobs := testJobs(t, 3)
	log := &attemptLog{}
	opt := fastOpts()
	opt.Runners = []Runner{hookRunner{name: "bad", log: log,
		hook: func(ctx context.Context, shard, attempt int) error {
			return fmt.Errorf("injected failure")
		}}}
	opt.QuarantineAfter = 2
	opt.NoLocalFallback = true
	if _, err := Run(context.Background(), jobs, opt); err == nil {
		t.Fatal("Run succeeded, want error with NoLocalFallback and no live workers")
	}
}

// TestShardSizes: shard granularity is invisible in the output,
// including the ragged final shard.
func TestShardSizes(t *testing.T) {
	jobs := testJobs(t, 8)
	want := mustJSON(t, baseline(t, jobs))
	for _, size := range []int{2, 3, 8, 100} {
		opt := fastOpts()
		opt.ShardSize = size
		opt.Runners = []Runner{InProcessRunner{ID: 0}, InProcessRunner{ID: 1}}
		got, err := Run(context.Background(), jobs, opt)
		if err != nil {
			t.Fatalf("ShardSize=%d: %v", size, err)
		}
		if !bytes.Equal(mustJSON(t, got), want) {
			t.Fatalf("ShardSize=%d: output diverges from baseline", size)
		}
	}
}

func TestMakeShards(t *testing.T) {
	shards := makeShards(7, 3)
	want := []shardRange{{0, 3}, {3, 6}, {6, 7}}
	if !reflect.DeepEqual(shards, want) {
		t.Fatalf("makeShards(7,3) = %v, want %v", shards, want)
	}
	if got := makeShards(0, 3); len(got) != 0 {
		t.Fatalf("makeShards(0,3) = %v, want empty", got)
	}
}

// countRunner records which shards actually execute — the resume tests'
// probe that recovered shards are not recomputed.
type countRunner struct {
	id  int
	mu  *sync.Mutex
	ran map[int]int
}

func (r countRunner) Name() string { return fmt.Sprintf("count-%d", r.id) }
func (r countRunner) Start(ctx context.Context) (Worker, error) {
	return countWorker{r}, nil
}

type countWorker struct{ r countRunner }

func (w countWorker) Run(ctx context.Context, id int, jobs []Job) ([]core.Result, error) {
	w.r.mu.Lock()
	w.r.ran[id]++
	w.r.mu.Unlock()
	return inProcWorker{}.Run(ctx, id, jobs)
}
func (countWorker) Close() error { return nil }

// TestJournalResume interrupts a sweep (simulated by truncating the
// journal to a prefix plus a garbage half-line, as a crash mid-append
// leaves it), then resumes: only the missing shards recompute, the
// garbage tail is cut, and the output is byte-identical.
func TestJournalResume(t *testing.T) {
	jobs := testJobs(t, 8)
	want := mustJSON(t, baseline(t, jobs))
	path := filepath.Join(t.TempDir(), "sweep.journal")

	// Full run, journaled (pure local: journaling is path-independent).
	opt := Options{Journal: path}
	if _, err := Run(context.Background(), jobs, opt); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(full), "\n"), "\n")
	if len(lines) != 1+len(jobs) { // header + one entry per shard (ShardSize 1)
		t.Fatalf("journal has %d lines, want %d", len(lines), 1+len(jobs))
	}

	// Keep the header and two completed shards; add a torn half-entry.
	const keep = 2
	var recovered []int
	for _, ln := range lines[1 : 1+keep] {
		var e journalEntry
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatal(err)
		}
		recovered = append(recovered, e.Shard)
	}
	prefix := strings.Join(lines[:1+keep], "") + `{"shard":5,"TORN`
	if err := os.WriteFile(path, []byte(prefix), 0o644); err != nil {
		t.Fatal(err)
	}

	mu := &sync.Mutex{}
	ran := map[int]int{}
	opt2 := fastOpts()
	opt2.Journal = path
	opt2.Resume = true
	opt2.Runners = []Runner{countRunner{id: 0, mu: mu, ran: ran}}
	var log bytes.Buffer
	opt2.Log = &log
	got, err := Run(context.Background(), jobs, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), want) {
		t.Fatal("resumed output diverges from baseline")
	}
	if len(ran) != len(jobs)-keep {
		t.Fatalf("resume recomputed %d shards, want %d\nlog:\n%s", len(ran), len(jobs)-keep, log.String())
	}
	for _, si := range recovered {
		if ran[si] != 0 {
			t.Fatalf("resume recomputed already-journaled shard %d", si)
		}
	}
	if !strings.Contains(log.String(), "resumed 2/8 shards") {
		t.Fatalf("log lacks resume note:\n%s", log.String())
	}

	// The finished journal must again cover every shard, garbage gone.
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(final), `"TORN`) {
		t.Fatal("garbage tail survived resume")
	}
	seen := map[int]bool{}
	for i, ln := range strings.Split(strings.TrimRight(string(final), "\n"), "\n")[1:] {
		var e journalEntry
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("final journal line %d: %v", i+1, err)
		}
		if seen[e.Shard] {
			t.Fatalf("shard %d journaled twice", e.Shard)
		}
		seen[e.Shard] = true
	}
	if len(seen) != len(jobs) {
		t.Fatalf("final journal covers %d shards, want %d", len(seen), len(jobs))
	}
}

// TestJournalRejectsForeignSweep: a journal from different jobs (seed,
// grid, reps, or duration) must refuse to resume, not silently merge
// wrong results.
func TestJournalRejectsForeignSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	jobsA := SweepJobs(scenario.SmokeGrid(), 1, 1, 0.02)[:3]
	jobsB := SweepJobs(scenario.SmokeGrid(), 2, 1, 0.02)[:3]
	if _, err := Run(context.Background(), jobsA, Options{Journal: path}); err != nil {
		t.Fatal(err)
	}
	opt := Options{Journal: path, Resume: true}
	if _, err := Run(context.Background(), jobsB, opt); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("resume against foreign journal: err = %v, want 'different sweep'", err)
	}
}

// TestResumeWithoutJournalFile: -resume with no existing journal starts
// fresh rather than failing.
func TestResumeWithoutJournalFile(t *testing.T) {
	jobs := testJobs(t, 3)
	path := filepath.Join(t.TempDir(), "fresh.journal")
	opt := Options{Journal: path, Resume: true}
	got, err := Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, baseline(t, jobs))) {
		t.Fatal("resume-from-nothing diverges from baseline")
	}
}

// TestServeWorkerProtocol drives the worker loop over in-memory buffers:
// normal execution, in-band job errors, and version mismatch, both with a
// future version and with the version before main became one server.
func TestServeWorkerProtocol(t *testing.T) {
	jobs := testJobs(t, 2)

	var in, out bytes.Buffer
	if err := writeFrame(&in, request{V: wireVersion, ID: 3, Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	bad := Job{Spec: scenario.Spec{Arch: "no-such-arch", Nodes: 1, Duration: 1000}}
	if err := writeFrame(&in, request{V: wireVersion, ID: 4, Jobs: []Job{bad}}); err != nil {
		t.Fatal(err)
	}
	versions := []int{99, 2} // shards 5 and 6
	for i, v := range versions {
		if err := writeFrame(&in, request{V: v, ID: 5 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ServeWorker(&in, &out); err != nil {
		t.Fatalf("ServeWorker: %v", err)
	}

	var resp response
	if err := readFrame(&out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 3 || resp.Error != "" || len(resp.Results) != 2 {
		t.Fatalf("shard 3 response: %+v", resp)
	}
	want, _, err := executeShard(context.Background(), jobs, wireTrace{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Results, want) {
		t.Fatal("worker results diverge from in-process execution")
	}
	resp = response{}
	if err := readFrame(&out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 4 || resp.Error == "" {
		t.Fatalf("bad-job response: %+v, want in-band error", resp)
	}
	for i, v := range versions {
		resp = response{}
		if err := readFrame(&out, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != 5+i || !strings.Contains(resp.Error, "protocol version") {
			t.Fatalf("V:%d version-mismatch response: %+v", v, resp)
		}
	}
}

// testSubprocessRunners re-executes this test binary as real worker
// processes (see TestMain).
func testSubprocessRunners(t *testing.T, n int) []Runner {
	t.Helper()
	rs := make([]Runner, n)
	for i := range rs {
		rs[i] = SubprocessRunner{
			Binary: os.Args[0],
			Args:   []string{},
			Env:    append(os.Environ(), "ROCC_DIST_WORKER=1"),
			Label:  fmt.Sprintf("worker-%d", i),
		}
	}
	return rs
}

// TestSubprocessWorkers runs the full stack — self-exec, wire protocol,
// process teardown — with two real worker processes, and again with
// crash injection killing workers mid-sweep; both must match the local
// baseline byte for byte.
func TestSubprocessWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fan-out in -short mode")
	}
	jobs := testJobs(t, 8)
	want := mustJSON(t, baseline(t, jobs))

	t.Run("clean", func(t *testing.T) {
		opt := fastOpts()
		opt.Runners = testSubprocessRunners(t, 2)
		got, err := Run(context.Background(), jobs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, got), want) {
			t.Fatal("subprocess output diverges from local baseline")
		}
	})

	t.Run("crashy", func(t *testing.T) {
		inner := testSubprocessRunners(t, 2)
		opt := fastOpts()
		opt.MinDeadline = 2 * time.Second
		opt.Runners = []Runner{
			&Chaos{Inner: inner[0], Seed: 11, Crash: 0.3},
			&Chaos{Inner: inner[1], Seed: 12, Crash: 0.3},
		}
		got, err := Run(context.Background(), jobs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, got), want) {
			t.Fatal("crashy subprocess output diverges from local baseline")
		}
	})
}

// TestSweepGridAPI checks the grid-level wrapper: cell blocks line up
// with the flat job order and the per-cell replication seed chain.
func TestSweepGridAPI(t *testing.T) {
	rep, err := Sweep(context.Background(), SweepOptions{
		Grid: "table4", Reps: 2, DurationSec: 0.02, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grid != "table4" || rep.Reps != 2 || len(rep.Cells) != 16 {
		t.Fatalf("report shape: grid=%q reps=%d cells=%d", rep.Grid, rep.Reps, len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if len(c.Results) != 2 {
			t.Fatalf("cell %s has %d results, want 2", c.ID, len(c.Results))
		}
	}
	// Spot-check cell 0 against the shared seed chain.
	g := scenario.Table4Grid()
	cfg, err := g.Cells[0].Spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 0.02 * 1e6
	cfg.Seed = core.DeriveSeed(3, core.SeedStreamFactorial, 0)
	want, err := core.RunReplications(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Cells[0].Results, want.Results) {
		t.Fatal("Sweep cell 0 diverges from core.RunReplications seed chain")
	}
	if _, err := GridByName("nope"); err == nil {
		t.Fatal("GridByName accepted unknown grid")
	}
}

// TestContextCancel: cancellation surfaces as ctx.Err, not a hang.
func TestContextCancel(t *testing.T) {
	jobs := testJobs(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	log := &attemptLog{}
	opt := fastOpts()
	opt.Runners = []Runner{hookRunner{name: "w", log: log,
		hook: func(ctx context.Context, shard, attempt int) error {
			if shard == 2 {
				cancel()
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		}}}
	done := make(chan struct{})
	var err error
	go func() { _, err = Run(ctx, jobs, opt); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
