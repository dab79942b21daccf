package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rocc/internal/obs"
)

// tracer records spans around the benchmark's calls into each layer. Spans
// stay in memory until the run ends. A nil *tracer records nothing, so the
// untraced path runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
	lanes []bool // lanes[i] is true while a goroutine holds Chrome tid i
}

// span is one timed call: spans of one op share op, and parent names the
// span that caused this one (0 for an op's root).
type span struct {
	id, parent, op int64
	name           string
	start, end     time.Duration
	lane           int
}

// spanRef locates a new span: its parent, its op and its Chrome lane.
type spanRef struct {
	id, op int64
	lane   int
}

// open is a span in progress.
type open struct {
	t *tracer
	s span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), lanes: []bool{true}} }

// start opens a span under ref.
func (t *tracer) start(name string, ref spanRef) *open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	op := ref.op
	if op == 0 {
		op = id
	}
	return &open{t: t, s: span{id: id, parent: ref.id, op: op, name: name, start: time.Since(t.t0), lane: ref.lane}}
}

// ref returns the location for children of this span.
func (o *open) ref() spanRef {
	if o == nil {
		return spanRef{}
	}
	return spanRef{id: o.s.id, op: o.s.op, lane: o.s.lane}
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.s.end = time.Since(o.t.t0)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// takeLane hands a goroutine the lowest free Chrome thread id, so spans on
// concurrent workers never overlap on one track.
func (t *tracer) takeLane() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, busy := range t.lanes {
		if !busy {
			t.lanes[i] = true
			return i
		}
	}
	t.lanes = append(t.lanes, true)
	return len(t.lanes) - 1
}

func (t *tracer) freeLane(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lanes[i] = false
	t.mu.Unlock()
}

// selfTimes returns each span name's self time in total: its duration
// minus the part of it covered by its children.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.name] += s.end - s.start - covered(s, kids[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's; children on parallel workers may overlap each other.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	lo, hi := p.start, p.start
	for _, k := range kids {
		s, e := max(k.start, p.start), min(k.end, p.end)
		if s >= e {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return total + hi - lo
}

// chromeEvent is one Chrome trace-event "X" (complete) record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace and checks the file with
// obs.ValidateChrome.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: "perfbench", Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	if _, err := obs.ValidateChrome(bytes.NewReader(data)); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
