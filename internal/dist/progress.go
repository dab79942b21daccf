package dist

import (
	"math"
	"sort"
	"sync"
	"time"

	"rocc/internal/obs"
)

// Monitor is a sweep's one observer. The coordinator reports every shard
// transition to it with a single call, and it keeps three views of them:
//
//   - the ten fault-handling counters (Counters), exported as the
//     rocc_sweep_*_total families and summarized on roccsweep's stderr;
//   - the live progress behind /progress (Snapshot): shard lifecycle
//     counts, per-worker state, and an ETA from observed shard durations;
//   - the shard timeline (WriteChrome): dispatch, run, job, retry,
//     quarantine, local-fallback and merge spans, one track per worker.
//
// Run always has one — Options.Monitor, or a fresh one when that is nil —
// so the coordinator reports without guards. Snapshot, Counters and the
// counters themselves may be read from any goroutine at any moment. None
// of it reaches the results: a sweep's output is the same bytes whatever
// the monitor records.
//
// Two invariants the chaos tests pin: Done never decreases (duplicate
// completions and worker failures cannot un-complete a shard), and
// ETASec is always finite (no NaN/Inf leaks into the JSON, whatever the
// fleet is doing).
type Monitor struct {
	// Dispatched counts attempts handed to workers from the queue
	// (speculative twins excluded).
	Dispatched obs.Counter
	// Completed counts shards completed by a worker (first completion
	// only; local-fallback completions excluded).
	Completed obs.Counter
	// Retries counts shards requeued after a failed attempt.
	Retries obs.Counter
	// Redispatches counts speculative duplicate dispatches of stragglers.
	Redispatches obs.Counter
	// Duplicates counts completions discarded because the shard was
	// already done.
	Duplicates obs.Counter
	// Timeouts counts attempts killed at the per-attempt deadline.
	Timeouts obs.Counter
	// WorkerFailures counts failed attempts, except those cancelled
	// because the remote phase ended.
	WorkerFailures obs.Counter
	// WorkerRestarts counts replacement workers started after a failure.
	WorkerRestarts obs.Counter
	// Quarantines counts worker slots retired after repeated failures.
	Quarantines obs.Counter
	// LocalShards counts shards routed to the local fallback.
	LocalShards obs.Counter

	mu          sync.Mutex
	start       time.Time
	shards      int
	done        int
	inflight    int // active attempts, speculative twins included
	waiting     int // shards in retry backoff
	durSum      time.Duration
	durN        int
	workers     map[string]*workerInfo
	quarantined []string
	finished    bool

	dispatches []int        // per-shard dispatch count this sweep: the attempt number
	events     []traceEvent // this sweep's timeline
}

// counterNames are the exported names of Counters(), in the same order.
var counterNames = [...]string{
	"dispatched", "completed", "retries", "redispatches", "duplicates",
	"timeouts", "worker_failures", "worker_restarts", "quarantines", "local_shards",
}

type workerInfo struct {
	state     string // starting, idle, running, quarantined, retired
	shard     int    // shard being run; -1 otherwise
	completed int
	failures  int
}

// WorkerState is one worker slot's live state in a Progress snapshot.
type WorkerState struct {
	Name string `json:"name"`
	// State is one of starting, idle, running, quarantined, retired.
	State string `json:"state"`
	// Shard is the shard index being run, -1 when not running.
	Shard     int `json:"shard"`
	Completed int `json:"completed"`
	Failures  int `json:"failures"`
}

// Progress is a point-in-time view of a sweep, JSON-shaped for the
// /progress endpoint.
type Progress struct {
	Shards   int `json:"shards"`
	Done     int `json:"done"`
	Inflight int `json:"inflight"`
	// Waiting counts shards sitting out a retry backoff.
	Waiting int `json:"waiting"`
	// The six fault counts read the monitor's counters: LocalFallback
	// is LocalShards (shards routed to local execution after their remote
	// retry budget was exhausted or the fleet was lost), Speculative is
	// Redispatches, Failures is WorkerFailures (failed attempts, except
	// those cancelled because the remote phase ended), and the rest share
	// their counter's name.
	LocalFallback int     `json:"local_fallback"`
	Retries       int     `json:"retries"`
	Speculative   int     `json:"speculative"`
	Duplicates    int     `json:"duplicates"`
	Timeouts      int     `json:"timeouts"`
	Failures      int     `json:"failures"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	// AvgShardSec is the mean observed duration of completed shards
	// (0 until the first completion).
	AvgShardSec float64 `json:"avg_shard_sec"`
	// ETASec estimates the remaining wall-clock seconds from observed
	// shard durations and the live worker count. Always finite; 0 until
	// the first shard completes (no basis for an estimate) and 0 once
	// the sweep is finished.
	ETASec      float64       `json:"eta_sec"`
	Finished    bool          `json:"finished"`
	Workers     []WorkerState `json:"workers"`
	Quarantined []string      `json:"quarantined,omitempty"`
}

// NewMonitor returns a monitor ready to attach to Options.Monitor.
func NewMonitor() *Monitor {
	m := &Monitor{start: time.Now(), workers: make(map[string]*workerInfo)}
	for i, c := range m.Counters() {
		c.Name = counterNames[i]
	}
	return m
}

// Counters returns the fault-handling counters in a stable order.
func (m *Monitor) Counters() []*obs.Counter {
	return []*obs.Counter{
		&m.Dispatched, &m.Completed, &m.Retries, &m.Redispatches,
		&m.Duplicates, &m.Timeouts, &m.WorkerFailures, &m.WorkerRestarts,
		&m.Quarantines, &m.LocalShards,
	}
}

// begin records the sweep's shape: total shards and how many arrived
// pre-completed from a resumed journal. A monitor may outlive one sweep
// (a caller may pass it to several sweeps in turn), but it observes one
// at a time: begin resets the per-sweep shape and timeline while the
// cumulative counters and worker histories carry over.
func (m *Monitor) begin(shards, recovered int) {
	m.mu.Lock()
	m.shards = shards
	m.done = recovered
	m.finished = false
	m.durSum = 0
	m.durN = 0
	m.dispatches = make([]int, shards)
	m.events = nil
	m.mu.Unlock()
}

func (m *Monitor) worker(name string) *workerInfo {
	w := m.workers[name]
	if w == nil {
		w = &workerInfo{state: "starting", shard: -1}
		m.workers[name] = w
	}
	return w
}

// workerStarting records a slot attempting to start a worker process.
func (m *Monitor) workerStarting(name string) {
	m.mu.Lock()
	m.worker(name).state = "starting"
	m.mu.Unlock()
}

// workerReady records a slot's worker up and waiting for a shard;
// restart marks a replacement for a failed worker.
func (m *Monitor) workerReady(name string, restart bool) {
	m.mu.Lock()
	if restart {
		m.WorkerRestarts.Add(1)
	}
	w := m.worker(name)
	w.state = "idle"
	w.shard = -1
	m.mu.Unlock()
}

// dispatched records one attempt at the shard whose first job is base,
// handed to a worker. The returned attempt rides the attempt's context to
// the transport and comes back to exactly one of completed, duplicate or
// failed.
func (m *Monitor) dispatched(name string, shard, base int, speculative bool) *attempt {
	begin := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight++
	if speculative {
		m.Redispatches.Add(1)
	} else {
		m.Dispatched.Add(1)
	}
	m.dispatches[shard]++
	w := m.worker(name)
	w.state = "running"
	w.shard = shard
	return &attempt{
		wireTrace: wireTrace{Shard: shard, Attempt: m.dispatches[shard], Base: base},
		worker:    name,
		begin:     begin,
	}
}

// endAttemptLocked closes an attempt: its dispatch span and worker spans
// go on the timeline and its worker goes idle. Callers hold m.mu.
func (m *Monitor) endAttemptLocked(a *attempt, err error, timedOut bool) *workerInfo {
	m.inflight--
	m.addAttemptSpans(a, err, timedOut)
	w := m.worker(a.worker)
	w.state = "idle"
	w.shard = -1
	return w
}

// completed records a shard's first completion (remote path).
func (m *Monitor) completed(a *attempt, dur time.Duration) {
	m.mu.Lock()
	m.endAttemptLocked(a, nil, false).completed++
	m.Completed.Add(1)
	m.done++
	m.durSum += dur
	m.durN++
	m.mu.Unlock()
}

// duplicate records a completion discarded because a speculative twin
// already finished the shard; Done must not move.
func (m *Monitor) duplicate(a *attempt) {
	m.mu.Lock()
	m.endAttemptLocked(a, nil, false)
	m.Duplicates.Add(1)
	m.mu.Unlock()
}

// failed records one failed attempt. An attempt cancelled because the
// remote phase ended (cancelled) is not a worker failure.
func (m *Monitor) failed(a *attempt, err error, timedOut, cancelled bool) {
	m.mu.Lock()
	w := m.endAttemptLocked(a, err, timedOut)
	if timedOut {
		m.Timeouts.Add(1)
	}
	if !cancelled {
		m.WorkerFailures.Add(1)
		w.failures++
	}
	m.mu.Unlock()
}

// backoff records a shard entering its retry-wait window.
func (m *Monitor) backoff(shard int, delay time.Duration) {
	m.mu.Lock()
	m.Retries.Add(1)
	m.waiting++
	m.addRetrySpan(shard, delay)
	m.mu.Unlock()
}

// requeued records a shard leaving retry-wait for the dispatch queue.
func (m *Monitor) requeued() {
	m.mu.Lock()
	if m.waiting > 0 {
		m.waiting--
	}
	m.mu.Unlock()
}

// toLocal records n shards routed to the local fallback.
func (m *Monitor) toLocal(n int) {
	m.LocalShards.Add(uint64(n))
}

// completedLocal records a local-fallback (or pure-local) completion of
// a shard whose execution began at begin.
func (m *Monitor) completedLocal(shard int, begin time.Time) {
	end := time.Now()
	m.mu.Lock()
	m.done++
	m.durSum += end.Sub(begin)
	m.durN++
	m.addLocalSpan(shard, begin, end)
	m.mu.Unlock()
}

// quarantine marks a worker slot retired after failures consecutive
// failures, the last being err.
func (m *Monitor) quarantine(name string, failures int, err error) {
	m.mu.Lock()
	m.Quarantines.Add(1)
	w := m.worker(name)
	w.state = "quarantined"
	w.shard = -1
	m.quarantined = append(m.quarantined, name)
	m.addQuarantineInstant(name, failures, err)
	m.mu.Unlock()
}

// workerRetired marks a slot done for any non-quarantine reason
// (shutdown, persistent start failure).
func (m *Monitor) workerRetired(name string) {
	m.mu.Lock()
	w := m.worker(name)
	if w.state != "quarantined" {
		w.state = "retired"
		w.shard = -1
	}
	m.mu.Unlock()
}

// finish records the merge of jobs results, begun at begin, and marks
// the sweep complete; ETA pins to zero.
func (m *Monitor) finish(begin time.Time, jobs int) {
	end := time.Now()
	m.mu.Lock()
	m.addMergeSpan(begin, end, jobs)
	m.finished = true
	m.mu.Unlock()
}

// Snapshot returns the current progress; safe from any goroutine.
func (m *Monitor) Snapshot() Progress {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := Progress{
		Shards:        m.shards,
		Done:          m.done,
		Inflight:      m.inflight,
		Waiting:       m.waiting,
		LocalFallback: int(m.LocalShards.Value()),
		Retries:       int(m.Retries.Value()),
		Speculative:   int(m.Redispatches.Value()),
		Duplicates:    int(m.Duplicates.Value()),
		Timeouts:      int(m.Timeouts.Value()),
		Failures:      int(m.WorkerFailures.Value()),
		ElapsedSec:    time.Since(m.start).Seconds(),
		Finished:      m.finished,
		Quarantined:   append([]string(nil), m.quarantined...),
	}
	if m.durN > 0 {
		p.AvgShardSec = (m.durSum / time.Duration(m.durN)).Seconds()
	}
	// ETA: remaining shards at the observed average rate over the
	// workers that can still take work; guarded so the estimate stays
	// finite whatever state the fleet is in.
	active := 0
	for name := range m.workers {
		switch m.workers[name].state {
		case "starting", "idle", "running":
			active++
		}
	}
	if !m.finished && m.durN > 0 && m.shards > m.done {
		lanes := active
		if lanes < 1 {
			lanes = 1 // local fallback still drains on this host
		}
		eta := p.AvgShardSec * float64(m.shards-m.done) / float64(lanes)
		if !math.IsInf(eta, 0) && !math.IsNaN(eta) && eta >= 0 {
			p.ETASec = eta
		}
	}
	names := make([]string, 0, len(m.workers))
	for name := range m.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	p.Workers = make([]WorkerState, 0, len(names))
	for _, name := range names {
		w := m.workers[name]
		p.Workers = append(p.Workers, WorkerState{
			Name: name, State: w.state, Shard: w.shard,
			Completed: w.completed, Failures: w.failures,
		})
	}
	return p
}
