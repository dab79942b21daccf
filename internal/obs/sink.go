package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"rocc/internal/procs"
	"rocc/internal/trace"
)

// OccKind selects the resource an occupancy span occupied.
type OccKind int

const (
	// OccCPU is a CPU scheduler dispatch (one quantum-bounded slice).
	OccCPU OccKind = iota
	// OccNet is one network transfer.
	OccNet
)

// OccSpan is one resource-occupancy interval: the simulated counterpart of
// an AIX kernel-trace record, tagged with which CPU (unit) produced it.
type OccSpan struct {
	Kind    OccKind
	Unit    int // CPU index (node order, host CPU last); 0 for the network
	Owner   string
	StartUS float64
	DurUS   float64
}

// EventKind classifies a sample-lifecycle event.
type EventKind int

const (
	EvSampleGenerated EventKind = iota
	EvSampleBlocked
	EvPipePut
	EvPipeBlocked
	EvPipeDropped
	EvPipeGet
	EvBatchCollected
	EvMessageForwarded
	EvMessageDelivered
	EvSampleDelivered
	EvDaemonCrash
	EvDaemonRestore
	EvRetransmit
	// EvSampleForwarded/EvSampleArrived carry per-sample identity through
	// the forwarding path (Unit is the daemon's node) so a sample's hops
	// are reconstructible from the trace; EvSampleLost closes the path for
	// samples that never reach the main process (N is the
	// procs.LossReason).
	EvSampleForwarded
	EvSampleArrived
	EvSampleLost
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvSampleGenerated:
		return "sample-generated"
	case EvSampleBlocked:
		return "sample-blocked"
	case EvPipePut:
		return "pipe-put"
	case EvPipeBlocked:
		return "pipe-blocked"
	case EvPipeDropped:
		return "pipe-dropped"
	case EvPipeGet:
		return "pipe-get"
	case EvBatchCollected:
		return "batch-collected"
	case EvMessageForwarded:
		return "message-forwarded"
	case EvMessageDelivered:
		return "message-delivered"
	case EvSampleDelivered:
		return "sample-delivered"
	case EvDaemonCrash:
		return "daemon-crash"
	case EvDaemonRestore:
		return "daemon-restore"
	case EvRetransmit:
		return "retransmit"
	case EvSampleForwarded:
		return "sample-forwarded"
	case EvSampleArrived:
		return "sample-arrived"
	case EvSampleLost:
		return "sample-lost"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one sample-lifecycle event. Field use varies by Kind:
//
//   - Node/Proc/Seq identify the sample for per-sample kinds (generated,
//     pipe put/block/drop/get, delivered) and the daemon's node for
//     daemon-scoped kinds (batch, forward, crash, restore, retransmit).
//   - Unit is the pipe ID for pipe events.
//   - DurUS is the end-to-end latency for EvSampleDelivered (whose TUS is
//     the sample's generation time, so the event renders as a span).
//   - N is a kind-specific count: pipe depth after put/get, 1 for a
//     DropOldest eviction (0 for an arrival drop), samples per batch or
//     message, samples lost in a crash, or the retransmit attempt number.
//   - Hops is the forwarding hop count (tree depth) for message kinds.
type Event struct {
	Kind  EventKind
	TUS   float64
	DurUS float64
	Unit  int
	Node  int
	Proc  int
	Seq   int
	N     int
	Hops  int
}

// TraceSink records occupancy spans and lifecycle events from one run.
// It is filled synchronously from the single simulation goroutine; no
// locking. Exporters read it after the run.
type TraceSink struct {
	spans  []OccSpan
	events []Event
}

// NewTraceSink returns an empty sink.
func NewTraceSink() *TraceSink { return &TraceSink{} }

func (s *TraceSink) addSpan(kind OccKind, unit int, owner string, start, length float64) {
	s.spans = append(s.spans, OccSpan{Kind: kind, Unit: unit, Owner: owner, StartUS: start, DurUS: length})
}

func (s *TraceSink) addEvent(e Event) { s.events = append(s.events, e) }

// Reset discards everything recorded so far (warmup removal).
func (s *TraceSink) Reset() {
	s.spans = s.spans[:0]
	s.events = s.events[:0]
}

// Spans returns the recorded occupancy spans (the sink's own slice; do not
// mutate).
func (s *TraceSink) Spans() []OccSpan { return s.spans }

// Events returns the recorded lifecycle events (the sink's own slice; do
// not mutate).
func (s *TraceSink) Events() []Event { return s.events }

// Len returns the total number of recorded spans and events.
func (s *TraceSink) Len() int { return len(s.spans) + len(s.events) }

// classPID maps a resource-accounting owner class to the Table 1 trace
// label and its PID base (one PID block per class; unit offsets within).
var classPID = map[string]struct {
	label string
	base  int
}{
	procs.OwnerApp:   {trace.ProcApplication, 100},
	procs.OwnerPd:    {trace.ProcPd, 200},
	procs.OwnerPvm:   {trace.ProcPvmd, 300},
	procs.OwnerOther: {trace.ProcOther, 400},
	procs.OwnerMain:  {trace.ProcParadyn, 500},
}

// TraceRecords exports the occupancy spans in internal/trace.Record form,
// sorted by start time, so rocctrace and the workload-characterization
// pipeline can analyze a simulated run exactly like a measured AIX trace.
// It covers every CPU in the model: per-class totals therefore match the
// run's aggregate Result accounting.
func (s *TraceSink) TraceRecords() []trace.Record {
	return s.records(func(OccSpan) bool { return true })
}

// UnitTraceRecords is TraceRecords narrowed to the CPUs whose unit is
// listed, plus every network span: what a kernel tracer running on those
// machines sees of a run, the shared interconnect included.
func (s *TraceSink) UnitTraceRecords(units ...int) []trace.Record {
	return s.records(func(sp OccSpan) bool {
		return sp.Kind == OccNet || slices.Contains(units, sp.Unit)
	})
}

func (s *TraceSink) records(keep func(OccSpan) bool) []trace.Record {
	recs := make([]trace.Record, 0, len(s.spans))
	for _, sp := range s.spans {
		if !keep(sp) {
			continue
		}
		info, ok := classPID[sp.Owner]
		if !ok {
			info.label, info.base = sp.Owner, 900
		}
		res := trace.CPU
		if sp.Kind == OccNet {
			res = trace.Network
		}
		recs = append(recs, trace.Record{
			StartUS:    sp.StartUS,
			PID:        info.base + sp.Unit,
			Process:    info.label,
			Resource:   res,
			DurationUS: sp.DurUS,
		})
	}
	trace.SortByTime(recs)
	return recs
}

// Chrome trace-event JSON (the catapult format Perfetto and
// chrome://tracing load). Sim time is already in microseconds — exactly
// the format's ts unit — so timestamps pass through unscaled. The pid
// axis groups tracks: one pid per CPU, one for the network, one per
// node's sample lifecycle, one per pipe.
const (
	chromePIDNet = 999
	chromePIDCPU = 1000 // + CPU unit
	// ChromePIDSample is the pid base of the per-node sample-lifecycle
	// tracks (pid = ChromePIDSample + node). Exported so trace consumers
	// (roccviz -lat) can recover a delivered sample's node from its span.
	ChromePIDSample = 2000
	chromePIDPipe   = 4000 // + pipe ID
)

// ChromeEvent is one trace-event object, shared by every Chrome-trace
// exporter in the module. Fields follow the Trace Event Format spec:
// ph "X" = complete (ts+dur), "i" = instant, "M" = metadata, "s"/"t"/"f"
// = flow start/step/end (ID binds the flow; BP "e" makes the flow end
// bind to the enclosing slice).
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// flowCat is the category of sample-path flow events; flowID is the
// per-sample flow binding (unique because Seq never resets).
const flowCat = "sampleflow"

func flowID(node, proc, seq int) string {
	return fmt.Sprintf("n%d.p%d.s%d", node, proc, seq)
}

// ownerTID gives each owner class a stable thread row within a CPU track.
func ownerTID(owner string) int {
	switch owner {
	case procs.OwnerApp:
		return 1
	case procs.OwnerPd:
		return 2
	case procs.OwnerPvm:
		return 3
	case procs.OwnerOther:
		return 4
	case procs.OwnerMain:
		return 5
	}
	return 9
}

// WriteChrome exports the run as Chrome trace-event JSON: one "X"
// (complete) event per occupancy span and per delivered sample, one "i"
// (instant) event per lifecycle event, "M" process_name metadata so
// Perfetto labels the tracks, and "s"/"t"/"f" flow events linking each
// sample's spans across pipe→daemon→network→main so viewers render
// end-to-end arrows. Flow events are emitted only for samples whose
// generation is in the trace (warmup-truncated paths would otherwise
// produce flow steps with no start), and each flow ends at most once
// (first delivery or loss wins; injected duplicates add no second end).
func (s *TraceSink) WriteChrome(w io.Writer) error {
	events := make([]ChromeEvent, 0, len(s.spans)+len(s.events)+16)
	named := map[int]string{}
	name := func(pid int, label string) {
		if _, ok := named[pid]; !ok {
			named[pid] = label
			events = append(events, ChromeEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": label},
			})
		}
	}
	gen := map[string]bool{}
	for _, e := range s.events {
		if e.Kind == EvSampleGenerated {
			gen[flowID(e.Node, e.Proc, e.Seq)] = true
		}
	}
	ended := map[string]bool{}
	for _, sp := range s.spans {
		pid, cat := chromePIDNet, "net"
		if sp.Kind == OccCPU {
			pid, cat = chromePIDCPU+sp.Unit, "cpu"
			name(pid, fmt.Sprintf("cpu %d", sp.Unit))
		} else {
			name(pid, "network")
		}
		events = append(events, ChromeEvent{
			Name: sp.Owner, Cat: cat, Ph: "X",
			TS: sp.StartUS, Dur: sp.DurUS,
			PID: pid, TID: ownerTID(sp.Owner),
		})
	}
	for _, e := range s.events {
		switch e.Kind {
		case EvSampleGenerated:
			pid := ChromePIDSample + e.Node
			name(pid, fmt.Sprintf("node %d samples", e.Node))
			events = append(events, ChromeEvent{
				Name: e.Kind.String(), Cat: "lifecycle", Ph: "i",
				TS: e.TUS, PID: pid, TID: 1, S: "t",
				Args: map[string]any{"n": e.N, "hops": e.Hops},
			})
			events = append(events, ChromeEvent{
				Name: "sample path", Cat: flowCat, Ph: "s",
				TS: e.TUS, PID: pid, TID: 1,
				ID:   flowID(e.Node, e.Proc, e.Seq),
				Args: map[string]any{"node": e.Node, "proc": e.Proc, "seq": e.Seq},
			})
		case EvSampleForwarded, EvSampleArrived:
			id := flowID(e.Node, e.Proc, e.Seq)
			if !gen[id] {
				continue
			}
			pid := ChromePIDSample + e.Node
			name(pid, fmt.Sprintf("node %d samples", e.Node))
			events = append(events, ChromeEvent{
				Name: e.Kind.String(), Cat: flowCat, Ph: "t",
				TS: e.TUS, PID: pid, TID: 1, ID: id,
				Args: map[string]any{"pd": e.Unit, "hops": e.Hops},
			})
		case EvSampleLost:
			pid := ChromePIDSample + e.Node
			name(pid, fmt.Sprintf("node %d samples", e.Node))
			events = append(events, ChromeEvent{
				Name: e.Kind.String(), Cat: "lifecycle", Ph: "i",
				TS: e.TUS, PID: pid, TID: 1, S: "t",
				Args: map[string]any{"reason": procs.LossReason(e.N).String(), "pd": e.Unit},
			})
			id := flowID(e.Node, e.Proc, e.Seq)
			if gen[id] && !ended[id] {
				ended[id] = true
				events = append(events, ChromeEvent{
					Name: "sample path", Cat: flowCat, Ph: "f",
					TS: e.TUS, PID: pid, TID: 1, ID: id, BP: "e",
				})
			}
		case EvSampleDelivered:
			pid := ChromePIDSample + e.Node
			name(pid, fmt.Sprintf("node %d samples", e.Node))
			events = append(events, ChromeEvent{
				Name: fmt.Sprintf("sample p%d #%d", e.Proc, e.Seq),
				Cat:  "sample", Ph: "X",
				TS: e.TUS, Dur: e.DurUS,
				PID: pid, TID: 1 + e.Proc,
				Args: map[string]any{"latency_us": e.DurUS},
			})
			id := flowID(e.Node, e.Proc, e.Seq)
			if gen[id] && !ended[id] {
				ended[id] = true
				events = append(events, ChromeEvent{
					Name: "sample path", Cat: flowCat, Ph: "f",
					TS: e.TUS + e.DurUS, PID: pid, TID: 1 + e.Proc, ID: id, BP: "e",
				})
			}
		case EvPipePut, EvPipeBlocked, EvPipeDropped, EvPipeGet:
			pid := chromePIDPipe + e.Unit
			name(pid, fmt.Sprintf("pipe %d", e.Unit))
			events = append(events, ChromeEvent{
				Name: e.Kind.String(), Cat: "pipe", Ph: "i",
				TS: e.TUS, PID: pid, TID: 1, S: "t",
				Args: map[string]any{"node": e.Node, "proc": e.Proc, "seq": e.Seq, "n": e.N},
			})
		default:
			pid := ChromePIDSample + e.Node
			name(pid, fmt.Sprintf("node %d samples", e.Node))
			events = append(events, ChromeEvent{
				Name: e.Kind.String(), Cat: "lifecycle", Ph: "i",
				TS: e.TUS, PID: pid, TID: 1, S: "t",
				Args: map[string]any{"n": e.N, "hops": e.Hops},
			})
		}
	}
	return EncodeChrome(w, events)
}

// EncodeChrome writes events as one Chrome trace-event JSON array, the
// form ValidateChrome and the trace viewers read.
func EncodeChrome(w io.Writer, events []ChromeEvent) error {
	return json.NewEncoder(w).Encode(events)
}

// ValidateChrome parses Chrome trace-event JSON produced by WriteChrome
// (or any conforming array-form trace) and returns the event count. It
// checks the structural invariants a viewer relies on: a non-empty array,
// a known phase on every event, non-negative timestamps and durations,
// and well-formed flows — every "s"/"t"/"f" carries an id, each (cat, id)
// starts exactly once, steps and ends have a matching start with the same
// cat, and no flow ends twice. Used by the CI trace-export smoke step and
// roccviz -check.
func ValidateChrome(r io.Reader) (int, error) {
	var events []ChromeEvent
	dec := json.NewDecoder(r)
	if err := dec.Decode(&events); err != nil {
		return 0, fmt.Errorf("obs: not a trace-event JSON array: %w", err)
	}
	if len(events) == 0 {
		return 0, fmt.Errorf("obs: trace contains no events")
	}
	type flowKey struct{ cat, id string }
	starts := map[flowKey]bool{}
	for i, e := range events {
		if e.Ph == "s" {
			if e.ID == "" {
				return 0, fmt.Errorf("obs: event %d: flow start without id", i)
			}
			k := flowKey{e.Cat, e.ID}
			if starts[k] {
				return 0, fmt.Errorf("obs: event %d: duplicate flow start %s/%s", i, e.Cat, e.ID)
			}
			starts[k] = true
		}
	}
	ended := map[flowKey]bool{}
	for i, e := range events {
		switch e.Ph {
		case "X", "i", "M", "B", "E", "C", "s":
		case "t", "f":
			if e.ID == "" {
				return 0, fmt.Errorf("obs: event %d: flow %q without id", i, e.Ph)
			}
			k := flowKey{e.Cat, e.ID}
			if !starts[k] {
				return 0, fmt.Errorf("obs: event %d: flow %q %s/%s has no matching start", i, e.Ph, e.Cat, e.ID)
			}
			if e.Ph == "f" {
				if ended[k] {
					return 0, fmt.Errorf("obs: event %d: flow %s/%s ends twice", i, e.Cat, e.ID)
				}
				ended[k] = true
			}
		default:
			return 0, fmt.Errorf("obs: event %d: unknown phase %q", i, e.Ph)
		}
		if e.Ph != "M" && e.Name == "" {
			return 0, fmt.Errorf("obs: event %d: missing name", i)
		}
		if e.TS < 0 || e.Dur < 0 {
			return 0, fmt.Errorf("obs: event %d: negative time", i)
		}
	}
	return len(events), nil
}
