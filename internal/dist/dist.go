// Package dist is the fault-tolerant distributed sweep engine: it shards
// scenario×replication job lists across worker processes — local
// subprocesses or ssh-reached hosts speaking length-prefixed JSON on
// stdin/stdout — and merges their results in index order.
//
// Determinism is the load-bearing wall. Every job's model seed is
// pre-derived from the master seed (core.DeriveSeed streams) before any
// work is dispatched, each job is a share-nothing simulation, and results
// land at their job's index — so worker count, shard placement, retries,
// duplicated completions, and the local fallback can never change the
// merged output. A distributed sweep is byte-identical to a single-host
// par.Map run, which is what makes aggressive fault-handling safe.
//
// Fault-handling is the core of the design, not an afterthought:
//
//   - Per-shard deadlines sized from observed shard durations kill hung
//     workers instead of stalling the sweep.
//   - Failed shards retry with exponential backoff, jitter, and a bounded
//     budget; a shard that exhausts its budget drains through the local
//     fallback, where a genuine simulation error surfaces
//     deterministically (lowest shard first, like par.Map).
//   - Straggling shards are speculatively re-dispatched to idle workers;
//     the first completion wins and duplicates are discarded by shard
//     index.
//   - Worker slots that fail repeatedly are quarantined; replacement
//     workers are spawned for transient failures.
//   - A journal (Options.Journal/Resume) checkpoints completed shards, so
//     an interrupted sweep resumes recomputing only what is missing.
//   - When every remote worker is lost, the remaining shards drain
//     through par.Map locally with a clear warning — degraded, not dead.
package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"rocc/internal/core"
	"rocc/internal/par"
	"rocc/internal/scenario"
)

// Job is one simulation unit: a fully specified scenario and the model
// seed to run it with. Seeds are pre-derived by the caller (see
// core.FactorialReplicationSeeds), so where — or how many times — a job
// executes cannot change its result.
type Job struct {
	Spec scenario.Spec `json:"spec"`
	Seed uint64        `json:"seed"`
}

// Execute runs one job in-process: the same code path a remote worker
// runs, used directly by the local fallback.
func Execute(j Job) (core.Result, error) {
	cfg, err := j.Spec.Config()
	if err != nil {
		return core.Result{}, err
	}
	if j.Seed != 0 {
		cfg.Seed = j.Seed
	}
	return core.Simulate(cfg)
}

const (
	// deadlineFactor scales the longest observed shard duration into the
	// per-attempt deadline once shards have completed.
	deadlineFactor = 8
	// workerStartRetries is how many extra times a slot re-attempts
	// starting a worker before retiring.
	workerStartRetries = 2
)

// Options tunes the distribution and fault-handling of a run. The zero
// value is usable: no Runners means pure local execution (which still
// honors ShardSize, Journal, and Resume).
type Options struct {
	// Runners are the worker slots; empty runs everything locally.
	Runners []Runner
	// ShardSize is the number of consecutive jobs per shard — the unit of
	// dispatch, retry, and checkpointing (default 1).
	ShardSize int
	// LocalParallel sizes the par.Map pool for local execution and the
	// fallback (0 = one worker per core).
	LocalParallel int

	// MaxShardRetries bounds failed attempts per shard before it is
	// routed to the local fallback (default 3).
	MaxShardRetries int
	// MaxShardAttempts caps concurrent attempts per shard — 1 disables
	// speculative re-dispatch of stragglers (default 2).
	MaxShardAttempts int
	// RetryBaseDelay is the first retry's backoff; doubling per failure
	// with ±50% jitter, capped at RetryMaxDelay (defaults 100ms, 5s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration

	// InitialDeadline is the per-attempt deadline before any shard has
	// completed (default 2m). Once shards complete, the deadline becomes
	// deadlineFactor × the longest observed shard duration, floored at
	// MinDeadline (default 1s).
	InitialDeadline time.Duration
	MinDeadline     time.Duration

	// QuarantineAfter retires a worker slot after that many consecutive
	// failures (default 3).
	QuarantineAfter int

	// NoLocalFallback fails the run instead of draining unfinished
	// shards locally when workers are lost or budgets exhaust.
	NoLocalFallback bool

	// Journal, when set, checkpoints completed shards to this file;
	// Resume replays it first and recomputes only missing shards.
	Journal string
	Resume  bool

	// Seed drives retry jitter only; it never affects results.
	Seed uint64
	// Log receives warnings (worker failures, quarantines, fallback);
	// nil discards them.
	Log io.Writer
	// Monitor observes the sweep: its fault counters, its /progress
	// state and its shard timeline. Nil means Run observes with a
	// monitor of its own that the caller never sees.
	Monitor *Monitor
}

func (o Options) normalized() Options {
	if o.ShardSize < 1 {
		o.ShardSize = 1
	}
	if o.MaxShardRetries <= 0 {
		o.MaxShardRetries = 3
	}
	if o.MaxShardAttempts < 1 {
		o.MaxShardAttempts = 2
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 100 * time.Millisecond
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = 5 * time.Second
	}
	if o.InitialDeadline <= 0 {
		o.InitialDeadline = 2 * time.Minute
	}
	if o.MinDeadline <= 0 {
		o.MinDeadline = time.Second
	}
	if o.QuarantineAfter <= 0 {
		o.QuarantineAfter = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.Monitor == nil {
		o.Monitor = NewMonitor()
	}
	return o
}

// shardRange is jobs[lo:hi].
type shardRange struct{ lo, hi int }

func makeShards(n, size int) []shardRange {
	shards := make([]shardRange, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		shards = append(shards, shardRange{lo, hi})
	}
	return shards
}

type shardStatus uint8

const (
	statusPending  shardStatus = iota // queued for dispatch
	statusInflight                    // ≥1 active attempt
	statusWaiting                     // retry backoff timer pending
	statusDone                        // results recorded
	statusLocal                       // remote budget exhausted; local fallback
)

// Run executes jobs across the configured workers and returns one Result
// per job, in job order — byte-identical to par.Map over the same jobs,
// whatever faults the workers suffer. On error (context cancellation, or
// a genuine simulation error surfaced through the local fallback) the
// journal, if configured, still holds every completed shard for -resume.
func Run(ctx context.Context, jobs []Job, opt Options) ([]core.Result, error) {
	opt = opt.normalized()
	n := len(jobs)
	if n == 0 {
		return nil, nil
	}
	shards := makeShards(n, opt.ShardSize)
	c := &coord{
		opt:       opt,
		jobs:      jobs,
		shards:    shards,
		status:    make([]shardStatus, len(shards)),
		attempts:  make([]int, len(shards)),
		failures:  make([]int, len(shards)),
		lastErr:   make([]error, len(shards)),
		startedAt: make([]time.Time, len(shards)),
		results:   make([][]core.Result, len(shards)),
		jitter:    opt.Seed,
		mon:       opt.Monitor,
	}
	c.cond = sync.NewCond(&c.mu)

	recoveredN := 0
	if opt.Journal != "" {
		shardLen := func(si int) int { return shards[si].hi - shards[si].lo }
		hdr := journalHeader{V: journalVersion, Jobs: n, ShardSize: opt.ShardSize, Fingerprint: fingerprint(jobs)}
		jr, recovered, err := openJournal(opt.Journal, opt.Resume, hdr, shardLen, len(shards))
		if err != nil {
			return nil, err
		}
		defer jr.close()
		c.journal = jr
		for si, res := range recovered {
			c.status[si] = statusDone
			c.results[si] = res
		}
		if len(recovered) > 0 {
			fmt.Fprintf(opt.Log, "dist: resumed %d/%d shards from journal %s\n",
				len(recovered), len(shards), opt.Journal)
		}
		recoveredN = len(recovered)
	}
	c.mon.begin(len(shards), recoveredN)

	for si := range shards {
		if c.status[si] != statusDone {
			c.queue = append(c.queue, si)
			c.remoteable++
		}
	}
	if c.remoteable == 0 {
		return c.finishMerged(), nil
	}

	if len(opt.Runners) > 0 {
		runCtx, cancel := context.WithCancel(ctx)
		go func() {
			<-runCtx.Done()
			c.close()
		}()
		var wg sync.WaitGroup
		c.slots = len(opt.Runners)
		for _, r := range opt.Runners {
			wg.Add(1)
			go func(r Runner) {
				defer wg.Done()
				c.slot(runCtx, r)
			}(r)
		}
		c.waitRemote()
		c.close()
		cancel()
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	left := c.leftover()
	if len(left) > 0 {
		if len(opt.Runners) > 0 {
			if opt.NoLocalFallback {
				si := left[0]
				err := c.lastErr[si]
				if err == nil {
					err = errors.New("workers lost before completion")
				}
				return nil, fmt.Errorf("dist: shard %d unfinished after %d failure(s) and local fallback disabled: %w",
					si, c.failures[si], err)
			}
			if c.slotsAlive() == 0 {
				fmt.Fprintf(opt.Log, "dist: WARNING: all %d worker slot(s) lost; draining %d remaining shard(s) locally\n",
					len(opt.Runners), len(left))
			} else {
				fmt.Fprintf(opt.Log, "dist: %d shard(s) exhausted their remote retry budget; draining locally\n", len(left))
			}
			// Shards that exhausted their retry budget were already counted
			// by onFailure; count only the ones stranded by a lost fleet.
			c.mu.Lock()
			stranded := 0
			for _, si := range left {
				if c.status[si] != statusLocal {
					stranded++
				}
			}
			c.mu.Unlock()
			c.mon.toLocal(stranded)
		}
		if err := c.drainLocal(ctx, left); err != nil {
			return nil, err
		}
	}
	return c.finishMerged(), nil
}

// finishMerged assembles the job-order results, recording the merge span
// and pinning the monitor's ETA to zero.
func (c *coord) finishMerged() []core.Result {
	begin := time.Now()
	out := c.merged()
	c.mon.finish(begin, len(c.jobs))
	return out
}

// coord is the driver's shared state: shard lifecycle, the dispatch
// queue, retry timers, and observed durations. One mutex guards it all —
// every transition is cheap next to a simulation run.
type coord struct {
	opt    Options
	jobs   []Job
	shards []shardRange
	mon    *Monitor

	mu         sync.Mutex
	cond       *sync.Cond
	status     []shardStatus
	attempts   []int // active attempts per shard
	failures   []int // accumulated failed attempts per shard
	lastErr    []error
	startedAt  []time.Time // earliest active attempt start
	queue      []int       // pending shard indices, FIFO
	results    [][]core.Result
	remoteable int // shards not yet Done or Local
	slots      int // live slot goroutines
	closed     bool
	timers     []*time.Timer
	maxDur     time.Duration // longest successful shard duration
	jitter     uint64        // SplitMix64 state for backoff jitter

	journal *journal
}

func (c *coord) warnf(format string, args ...any) {
	fmt.Fprintf(c.opt.Log, format+"\n", args...)
}

// slot is one worker slot's lifecycle: start a worker, feed it shards,
// replace it on failure, retire on quarantine or persistent start
// failure.
func (c *coord) slot(ctx context.Context, r Runner) {
	defer c.slotExit()
	name := r.Name()
	defer c.mon.workerRetired(name)
	failStreak := 0
	started := false
	for {
		w := c.startWorker(ctx, r)
		if w == nil {
			return
		}
		c.mon.workerReady(name, started)
		started = true
		for {
			si, speculative, ok := c.next(ctx)
			if !ok {
				w.Close()
				return
			}
			sh := c.shards[si]
			a := c.mon.dispatched(name, si, sh.lo, speculative)
			actx, cancel := context.WithTimeout(withAttempt(ctx, a), c.attemptDeadline())
			begin := time.Now()
			res, err := w.Run(actx, si, c.jobs[sh.lo:sh.hi])
			timedOut := actx.Err() == context.DeadlineExceeded && ctx.Err() == nil
			cancel()
			if err == nil && len(res) != sh.hi-sh.lo {
				err = fmt.Errorf("returned %d results, want %d", len(res), sh.hi-sh.lo)
			}
			if err != nil {
				cancelled := ctx.Err() != nil
				c.mon.failed(a, err, timedOut, cancelled)
				c.onFailure(si, name, err)
				w.Close()
				if cancelled {
					return
				}
				failStreak++
				if failStreak >= c.opt.QuarantineAfter {
					c.mon.quarantine(name, failStreak, err)
					c.warnf("dist: worker %s quarantined after %d consecutive failures (last: %v)",
						name, failStreak, err)
					return
				}
				break // replace the worker
			}
			failStreak = 0
			c.onSuccess(si, a, res, time.Since(begin))
		}
	}
}

// startWorker launches a worker with bounded, backed-off retries.
// Returns nil when the slot should retire (persistent failure or
// shutdown).
func (c *coord) startWorker(ctx context.Context, r Runner) Worker {
	c.mon.workerStarting(r.Name())
	for k := 0; ; k++ {
		if c.isClosed() || ctx.Err() != nil {
			return nil
		}
		w, err := r.Start(ctx)
		if err == nil {
			return w
		}
		if k >= workerStartRetries {
			c.warnf("dist: worker %s: start failed %d time(s), slot retired (last: %v)", r.Name(), k+1, err)
			return nil
		}
		c.warnf("dist: worker %s: start: %v (retrying)", r.Name(), err)
		if !sleepCtx(ctx, c.backoff(k+1)) {
			return nil
		}
	}
}

// next blocks until a shard is available for this worker: a queued shard
// first, else a speculative duplicate of the oldest straggler (reported
// in the second return). Returns false when the remote phase is over.
func (c *coord) next(ctx context.Context) (si int, speculative, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed || ctx.Err() != nil || c.remoteable == 0 {
			return 0, false, false
		}
		if len(c.queue) > 0 {
			si := c.queue[0]
			c.queue = c.queue[1:]
			c.status[si] = statusInflight
			c.attempts[si]++
			if c.attempts[si] == 1 {
				c.startedAt[si] = time.Now()
			}
			return si, false, true
		}
		if si, ok := c.speculativeLocked(); ok {
			c.attempts[si]++
			return si, true, true
		}
		c.cond.Wait()
	}
}

// speculativeLocked picks the oldest in-flight shard with attempt
// headroom — the straggler most worth duplicating on an idle worker.
func (c *coord) speculativeLocked() (int, bool) {
	best, ok := -1, false
	for si, st := range c.status {
		if st != statusInflight || c.attempts[si] >= c.opt.MaxShardAttempts {
			continue
		}
		if !ok || c.startedAt[si].Before(c.startedAt[best]) {
			best, ok = si, true
		}
	}
	return best, ok
}

// onSuccess records a completed shard; duplicate completions (from
// speculative re-dispatch) are discarded by shard index.
func (c *coord) onSuccess(si int, a *attempt, res []core.Result, dur time.Duration) {
	c.mu.Lock()
	if c.attempts[si] > 0 {
		c.attempts[si]--
	}
	if c.status[si] == statusDone {
		c.mu.Unlock()
		c.mon.duplicate(a)
		return
	}
	wasRemote := c.status[si] != statusLocal
	c.status[si] = statusDone
	c.results[si] = res
	if dur > c.maxDur {
		c.maxDur = dur
	}
	if wasRemote {
		c.remoteable--
	}
	jr := c.journal
	c.cond.Broadcast()
	c.mu.Unlock()
	c.mon.completed(a, dur)
	if jr != nil {
		if err := jr.append(si, res); err != nil {
			c.warnf("dist: %v", err)
		}
	}
}

// onFailure accounts one failed attempt. When it was the shard's last
// active attempt, the shard either requeues after a backoff delay or —
// budget exhausted — is routed to the local fallback.
func (c *coord) onFailure(si int, worker string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attempts[si] > 0 {
		c.attempts[si]--
	}
	if c.status[si] == statusDone || c.status[si] == statusLocal || c.closed {
		return
	}
	c.lastErr[si] = err
	c.failures[si]++
	fmt.Fprintf(c.opt.Log, "dist: shard %d failed on %s (failure %d/%d): %v\n",
		si, worker, c.failures[si], c.opt.MaxShardRetries+1, err)
	if c.attempts[si] > 0 {
		return // a speculative twin is still running; let it finish
	}
	if c.failures[si] > c.opt.MaxShardRetries {
		c.status[si] = statusLocal
		c.remoteable--
		c.cond.Broadcast()
		c.mon.toLocal(1)
		return
	}
	c.status[si] = statusWaiting
	delay := c.backoffLocked(c.failures[si])
	c.mon.backoff(si, delay)
	t := time.AfterFunc(delay, func() { c.requeue(si) })
	c.timers = append(c.timers, t)
}

// requeue moves a shard from retry-wait back into the dispatch queue.
func (c *coord) requeue(si int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.status[si] != statusWaiting {
		return
	}
	c.status[si] = statusPending
	c.queue = append(c.queue, si)
	c.cond.Broadcast()
	c.mon.requeued()
}

// attemptDeadline sizes the per-attempt deadline from observed shard
// durations: generous before the first completion, then a multiple of
// the longest successful shard so hangs die fast without killing honest
// stragglers.
func (c *coord) attemptDeadline() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxDur == 0 {
		return c.opt.InitialDeadline
	}
	d := time.Duration(deadlineFactor * float64(c.maxDur))
	if d < c.opt.MinDeadline {
		d = c.opt.MinDeadline
	}
	return d
}

// backoff computes the k-th retry delay: exponential with ±50% jitter,
// capped at RetryMaxDelay.
func (c *coord) backoff(k int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backoffLocked(k)
}

func (c *coord) backoffLocked(k int) time.Duration {
	d := c.opt.RetryBaseDelay
	for i := 1; i < k && d < c.opt.RetryMaxDelay; i++ {
		d *= 2
	}
	if d > c.opt.RetryMaxDelay {
		d = c.opt.RetryMaxDelay
	}
	// SplitMix64 step for the jitter factor in [0.5, 1.5).
	c.jitter += 0x9e3779b97f4a7c15
	z := c.jitter
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	frac := float64(z>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.5 + frac))
}

func (c *coord) waitRemote() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.remoteable > 0 && c.slots > 0 && !c.closed {
		c.cond.Wait()
	}
}

func (c *coord) slotExit() {
	c.mu.Lock()
	c.slots--
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *coord) slotsAlive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slots
}

func (c *coord) close() {
	c.mu.Lock()
	c.closed = true
	for _, t := range c.timers {
		t.Stop()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *coord) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// leftover returns every unfinished shard index, ascending.
func (c *coord) leftover() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var left []int
	for si, st := range c.status {
		if st != statusDone {
			left = append(left, si)
		}
	}
	sort.Ints(left)
	return left
}

// drainLocal executes the given shards through par.Map on this host —
// the pure-local path and the graceful-degradation fallback. Results and
// journal entries are recorded per shard as they complete, so even a
// failing drain checkpoints its successes; the error reported is the
// lowest failing shard's, exactly as the serial path would surface it.
func (c *coord) drainLocal(ctx context.Context, left []int) error {
	_, err := par.Map(c.opt.LocalParallel, left, func(_ int, si int) (struct{}, error) {
		begin := time.Now()
		sh := c.shards[si]
		res, _, err := executeShard(ctx, c.jobs[sh.lo:sh.hi], wireTrace{Shard: si, Base: sh.lo})
		if err != nil {
			return struct{}{}, fmt.Errorf("dist: shard %d (jobs %d-%d): %w", si, sh.lo, sh.hi-1, err)
		}
		c.mu.Lock()
		c.status[si] = statusDone
		c.results[si] = res
		c.mu.Unlock()
		c.mon.completedLocal(si, begin)
		if c.journal != nil {
			if jerr := c.journal.append(si, res); jerr != nil {
				c.warnf("dist: %v", jerr)
			}
		}
		return struct{}{}, nil
	})
	return err
}

// merged assembles the final job-order result slice.
func (c *coord) merged() []core.Result {
	out := make([]core.Result, len(c.jobs))
	for si, sh := range c.shards {
		copy(out[sh.lo:sh.hi], c.results[si])
	}
	return out
}

// sleepCtx sleeps d or until ctx is done; reports whether it slept fully.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
