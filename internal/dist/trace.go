package dist

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"rocc/internal/obs"
)

// Cross-process sweep timeline. The coordinator stamps every dispatched
// attempt with a trace context; transports that speak the wire protocol
// forward it inside the request frame, workers record per-job spans on
// their own clock relative to the start of the shard, and ship them back
// with the results. The monitor re-anchors worker-local spans at its own
// dispatch timestamp and merges everything — dispatch, run, retry
// backoff, quarantine, local fallback, merge — into one Chrome/Perfetto
// timeline with one track per worker slot. The timeline is purely
// observational: spans ride alongside results, never inside them.

// Span is one traced interval, as recorded by a worker (StartUS relative
// to the start of the shard's execution).
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

// attempt is one dispatch of a shard to a worker, threaded through the
// Worker.Run context: the trace context the transport forwards, and the
// worker's spans it hands back.
type attempt struct {
	wireTrace
	worker string
	begin  time.Time
	// spans are the worker's spans, set by the transport before Run
	// returns (from the slot goroutine).
	spans []Span
}

type attemptKey struct{}

// withAttempt attaches a to ctx for the transport to find.
func withAttempt(ctx context.Context, a *attempt) context.Context {
	return context.WithValue(ctx, attemptKey{}, a)
}

// attemptFrom returns the attempt ctx carries. A Worker run outside Run
// gets a detached one for shard id, whose spans go nowhere.
func attemptFrom(ctx context.Context, id int) *attempt {
	if a, ok := ctx.Value(attemptKey{}).(*attempt); ok {
		return a
	}
	return &attempt{wireTrace: wireTrace{Shard: id}}
}

// traceEvent is one merged timeline entry: a span ("X") or instant ("i")
// on a named track.
type traceEvent struct {
	name  string
	cat   string
	ph    string
	ts    float64 // µs since the monitor's start
	dur   float64
	track string // worker slot name, or coordinator/local
	args  map[string]any
}

// Track names for coordinator-side events.
const (
	trackCoordinator = "coordinator"
	trackLocal       = "local fallback"
)

// us is t on the timeline: µs since the monitor's start.
func (m *Monitor) us(t time.Time) float64 {
	return float64(t.Sub(m.start)) / float64(time.Microsecond)
}

// addAttemptSpans records a's dispatch span and re-anchors the worker's
// spans at the dispatch timestamp on the worker's track. Callers hold
// m.mu.
func (m *Monitor) addAttemptSpans(a *attempt, err error, timedOut bool) {
	ts := m.us(a.begin)
	outcome := "ok"
	switch {
	case timedOut:
		outcome = "timeout"
	case err != nil:
		outcome = "error"
	}
	args := map[string]any{"shard": a.Shard, "attempt": a.Attempt, "outcome": outcome}
	if err != nil {
		args["error"] = err.Error()
	}
	name := fmt.Sprintf("dispatch shard %d", a.Shard)
	if a.Attempt > 1 {
		name = fmt.Sprintf("dispatch shard %d (attempt %d)", a.Shard, a.Attempt)
	}
	m.events = append(m.events, traceEvent{
		name: name, cat: "dispatch", ph: "X",
		ts: ts, dur: m.us(time.Now()) - ts, track: a.worker, args: args,
	})
	for _, sp := range a.spans {
		m.events = append(m.events, traceEvent{
			name: sp.Name, cat: sp.Cat, ph: "X",
			ts: ts + sp.StartUS, dur: sp.DurUS, track: a.worker,
			args: map[string]any{"shard": sp.Shard, "attempt": sp.Attempt, "job": sp.Job},
		})
	}
}

// addRetrySpan records a shard's backoff window on the coordinator
// track. Callers hold m.mu.
func (m *Monitor) addRetrySpan(shard int, delay time.Duration) {
	m.events = append(m.events, traceEvent{
		name: fmt.Sprintf("retry backoff shard %d", shard), cat: "retry", ph: "X",
		ts: m.us(time.Now()), dur: float64(delay) / float64(time.Microsecond), track: trackCoordinator,
		args: map[string]any{"shard": shard},
	})
}

// addQuarantineInstant records a worker slot's retirement as an instant
// on its track. Callers hold m.mu.
func (m *Monitor) addQuarantineInstant(worker string, failures int, err error) {
	args := map[string]any{"consecutive_failures": failures}
	if err != nil {
		args["last_error"] = err.Error()
	}
	m.events = append(m.events, traceEvent{
		name: "quarantined", cat: "quarantine", ph: "i",
		ts: m.us(time.Now()), track: worker, args: args,
	})
}

// addLocalSpan records one local-fallback shard execution. Callers hold
// m.mu.
func (m *Monitor) addLocalSpan(shard int, begin, end time.Time) {
	m.events = append(m.events, traceEvent{
		name: fmt.Sprintf("run shard %d", shard), cat: "local", ph: "X",
		ts: m.us(begin), dur: m.us(end) - m.us(begin), track: trackLocal,
		args: map[string]any{"shard": shard},
	})
}

// addMergeSpan records the final result-assembly step on the coordinator
// track. Callers hold m.mu.
func (m *Monitor) addMergeSpan(begin, end time.Time, jobs int) {
	m.events = append(m.events, traceEvent{
		name: "merge results", cat: "merge", ph: "X",
		ts: m.us(begin), dur: m.us(end) - m.us(begin), track: trackCoordinator,
		args: map[string]any{"jobs": jobs},
	})
}

// Len returns the number of events on the current sweep's timeline.
func (m *Monitor) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// Categories counts the timeline's events per span category (for tests
// and summaries).
func (m *Monitor) Categories() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int)
	for _, e := range m.events {
		out[e.cat]++
	}
	return out
}

// WriteChrome exports the current sweep's timeline as Chrome trace-event
// JSON: pid 1 is the coordinator, pid 2 the local fallback, and each
// worker slot gets its own pid (sorted by name for a stable layout),
// labeled via process_name metadata so Perfetto shows one track per
// worker.
func (m *Monitor) WriteChrome(w io.Writer) error {
	m.mu.Lock()
	events := append([]traceEvent(nil), m.events...)
	m.mu.Unlock()

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
