package dist

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"rocc/internal/obs"
)

// Cross-process sweep tracing. The coordinator stamps every dispatched
// attempt with a trace context; transports that speak the wire protocol
// forward it inside the request frame, workers record per-job spans on
// their own clock relative to request receipt, and ship them back with
// the results. The coordinator re-anchors worker-local spans at its own
// dispatch timestamp and merges everything — dispatch, run, retry
// backoff, quarantine, local fallback, merge — into one Chrome/Perfetto
// timeline with one track per worker slot. Tracing is purely
// observational: spans ride alongside results, never inside them, so a
// traced sweep is byte-identical to an untraced one (pinned by test).

// Span is one traced interval, as recorded by a worker (StartUS relative
// to receipt of the shard request) or by the coordinator after merging
// (StartUS relative to the recorder's start).
type Span struct {
	// Name is the human label ("run shard 3", "job 17").
	Name string `json:"name"`
	// Cat classifies the span: dispatch, run, job, retry, quarantine,
	// local, merge.
	Cat     string  `json:"cat"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Shard   int     `json:"shard"`
	Attempt int     `json:"attempt"`
	// Job is the global job index for per-job spans, -1 otherwise.
	Job int `json:"job,omitempty"`
}

// traceContext is the per-attempt trace state the coordinator threads
// through the Worker.Run context. Transports look it up to decide
// whether to request worker-side spans and where to deliver them.
type traceContext struct {
	Shard   int
	Attempt int
	// Base is the shard's first global job index, so worker-side per-job
	// spans carry sweep-global job numbers.
	Base int
	// collect receives the worker's spans before Run returns; called at
	// most once, from the slot goroutine.
	collect func([]Span)
}

type traceCtxKey struct{}

// withTraceContext attaches tc to ctx for the transport to find.
func withTraceContext(ctx context.Context, tc *traceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// traceContextFrom returns the attempt's trace context, or nil when the
// sweep is untraced — the transport's signal to skip span recording
// entirely.
func traceContextFrom(ctx context.Context) *traceContext {
	tc, _ := ctx.Value(traceCtxKey{}).(*traceContext)
	return tc
}

// recordWorkerSpans is the worker-side span recorder shared by the wire
// protocol server and the in-process worker: one "run" span covering the
// whole shard plus one "job" span per job, timed on the worker's clock
// relative to t0 (request receipt).
type workerSpanRecorder struct {
	t0    time.Time
	spans []Span
}

func newWorkerSpanRecorder() *workerSpanRecorder {
	return &workerSpanRecorder{t0: time.Now()}
}

func (r *workerSpanRecorder) sinceUS() float64 {
	return float64(time.Since(r.t0)) / float64(time.Microsecond)
}

func (r *workerSpanRecorder) add(name, cat string, startUS float64, shard, attempt, job int) {
	r.spans = append(r.spans, Span{
		Name: name, Cat: cat,
		StartUS: startUS, DurUS: r.sinceUS() - startUS,
		Shard: shard, Attempt: attempt, Job: job,
	})
}

// TraceRecorder accumulates a sweep's merged timeline. Attach one via
// Options.Trace; nil disables tracing with zero overhead (no context
// values, no clock reads). All methods are safe for concurrent use by
// the slot goroutines.
type TraceRecorder struct {
	mu       sync.Mutex
	start    time.Time
	attempts map[int]int // per-shard dispatch counter
	events   []traceEvent
}

// traceEvent is one merged timeline entry: a span ("X") or instant ("i")
// on a named track.
type traceEvent struct {
	name  string
	cat   string
	ph    string
	ts    float64 // µs since recorder start
	dur   float64
	track string // worker slot name, or coordinator/local
	args  map[string]any
}

// Track names for coordinator-side events.
const (
	trackCoordinator = "coordinator"
	trackLocal       = "local fallback"
)

// NewTraceRecorder returns a recorder anchored at the current time.
func NewTraceRecorder() *TraceRecorder {
	return &TraceRecorder{start: time.Now(), attempts: make(map[int]int)}
}

func (r *TraceRecorder) nowUS() float64 {
	return float64(time.Since(r.start)) / float64(time.Microsecond)
}

// attemptToken carries one dispatch's identity from attemptStart to
// attemptEnd.
type attemptToken struct {
	worker  string
	shard   int
	attempt int
	tsUS    float64
	spans   []Span // worker-reported, delivered via traceContext.collect
}

// attemptStart opens a dispatch span for shard on the named worker track
// and returns the token attemptEnd closes it with.
func (r *TraceRecorder) attemptStart(worker string, shard int) *attemptToken {
	r.mu.Lock()
	r.attempts[shard]++
	att := r.attempts[shard]
	r.mu.Unlock()
	return &attemptToken{worker: worker, shard: shard, attempt: att, tsUS: r.nowUS()}
}

// attemptEnd records the dispatch span and re-anchors any worker-side
// spans at the dispatch timestamp on the worker's track.
func (r *TraceRecorder) attemptEnd(tok *attemptToken, err error, timedOut bool) {
	end := r.nowUS()
	outcome := "ok"
	switch {
	case timedOut:
		outcome = "timeout"
	case err != nil:
		outcome = "error"
	}
	args := map[string]any{"shard": tok.shard, "attempt": tok.attempt, "outcome": outcome}
	if err != nil {
		args["error"] = err.Error()
	}
	name := fmt.Sprintf("dispatch shard %d", tok.shard)
	if tok.attempt > 1 {
		name = fmt.Sprintf("dispatch shard %d (attempt %d)", tok.shard, tok.attempt)
	}
	r.mu.Lock()
	r.events = append(r.events, traceEvent{
		name: name, cat: "dispatch", ph: "X",
		ts: tok.tsUS, dur: end - tok.tsUS, track: tok.worker, args: args,
	})
	for _, sp := range tok.spans {
		r.events = append(r.events, traceEvent{
			name: sp.Name, cat: sp.Cat, ph: "X",
			ts: tok.tsUS + sp.StartUS, dur: sp.DurUS, track: tok.worker,
			args: map[string]any{"shard": sp.Shard, "attempt": sp.Attempt, "job": sp.Job},
		})
	}
	r.mu.Unlock()
}

// retryWait records a shard's backoff window on the coordinator track.
func (r *TraceRecorder) retryWait(shard int, delay time.Duration) {
	ts := r.nowUS()
	r.mu.Lock()
	r.events = append(r.events, traceEvent{
		name: fmt.Sprintf("retry backoff shard %d", shard), cat: "retry", ph: "X",
		ts: ts, dur: float64(delay) / float64(time.Microsecond), track: trackCoordinator,
		args: map[string]any{"shard": shard},
	})
	r.mu.Unlock()
}

// quarantine records a worker slot's retirement as an instant on its
// track.
func (r *TraceRecorder) quarantine(worker string, failures int, err error) {
	ts := r.nowUS()
	args := map[string]any{"consecutive_failures": failures}
	if err != nil {
		args["last_error"] = err.Error()
	}
	r.mu.Lock()
	r.events = append(r.events, traceEvent{
		name: "quarantined", cat: "quarantine", ph: "i",
		ts: ts, track: worker, args: args,
	})
	r.mu.Unlock()
}

// localShard records one local-fallback shard execution.
func (r *TraceRecorder) localShard(shard int, startUS float64) {
	end := r.nowUS()
	r.mu.Lock()
	r.events = append(r.events, traceEvent{
		name: fmt.Sprintf("run shard %d", shard), cat: "local", ph: "X",
		ts: startUS, dur: end - startUS, track: trackLocal,
		args: map[string]any{"shard": shard},
	})
	r.mu.Unlock()
}

// mergeSpan records the final result-assembly step on the coordinator
// track.
func (r *TraceRecorder) mergeSpan(startUS float64, jobs int) {
	end := r.nowUS()
	r.mu.Lock()
	r.events = append(r.events, traceEvent{
		name: "merge results", cat: "merge", ph: "X",
		ts: startUS, dur: end - startUS, track: trackCoordinator,
		args: map[string]any{"jobs": jobs},
	})
	r.mu.Unlock()
}

// Len returns the number of recorded timeline events.
func (r *TraceRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Categories returns the set of recorded span categories (for tests and
// summaries).
func (r *TraceRecorder) Categories() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int)
	for _, e := range r.events {
		out[e.cat]++
	}
	return out
}

// WriteChrome exports the merged timeline as Chrome trace-event JSON:
// pid 1 is the coordinator, pid 2 the local fallback, and each worker
// slot gets its own pid (sorted by name for a stable layout), labeled
// via process_name metadata so Perfetto shows one track per worker.
func (r *TraceRecorder) WriteChrome(w io.Writer) error {
	r.mu.Lock()
	events := append([]traceEvent(nil), r.events...)
	r.mu.Unlock()

	pids := map[string]int{trackCoordinator: 1, trackLocal: 2}
	var workers []string
	seen := map[string]bool{}
	for _, e := range events {
		if _, fixed := pids[e.track]; !fixed && !seen[e.track] {
			seen[e.track] = true
			workers = append(workers, e.track)
		}
	}
	sort.Strings(workers)
	for i, name := range workers {
		pids[name] = 10 + i
	}

	out := make([]obs.ChromeEvent, 0, len(events)+len(pids))
	emitted := map[string]bool{}
	meta := func(track string) {
		if emitted[track] {
			return
		}
		emitted[track] = true
		out = append(out, obs.ChromeEvent{
			Name: "process_name", Ph: "M", PID: pids[track],
			Args: map[string]any{"name": track},
		})
	}
	for _, e := range events {
		meta(e.track)
		ce := obs.ChromeEvent{
			Name: e.name, Cat: e.cat, Ph: e.ph,
			TS: e.ts, Dur: e.dur, PID: pids[e.track], TID: 1, Args: e.args,
		}
		if e.ph == "i" {
			ce.S = "t"
		}
		out = append(out, ce)
	}
	return obs.EncodeChrome(w, out)
}
