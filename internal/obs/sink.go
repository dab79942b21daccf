package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"rocc/internal/obs/prov"
	"rocc/internal/procs"
	"rocc/internal/resources"
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
//     pipe put/block/get, delivered) and the daemon's node for
//     daemon-scoped kinds (batch, forward, crash, restore, retransmit).
//   - Unit is the pipe ID for pipe events.
//   - DurUS is the end-to-end latency for EvSampleDelivered (whose TUS is
//     the sample's generation time, so the event renders as a span).
//   - N is a kind-specific count: pipe depth after put/get, samples per
//     batch or message, samples lost in a crash, or the retransmit attempt
//     number.
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
	chromePIDNet    = 999
	chromePIDCPU    = 1000 // + CPU unit
	chromePIDSample = 2000 // + node: the node's sample-lifecycle track
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

// flowCat is the category of sample-path flow events; flowIDFormat is the
// per-sample flow binding (unique because Seq never resets), and
// sampleSpanFormat names a delivered sample's span on its node's track.
const (
	flowCat          = "sampleflow"
	flowIDFormat     = "n%d.p%d.s%d"
	sampleSpanFormat = "sample p%d #%d"
)

func flowID(node, proc, seq int) string {
	return fmt.Sprintf(flowIDFormat, node, proc, seq)
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
			pid := chromePIDSample + e.Node
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
			pid := chromePIDSample + e.Node
			name(pid, fmt.Sprintf("node %d samples", e.Node))
			events = append(events, ChromeEvent{
				Name: e.Kind.String(), Cat: flowCat, Ph: "t",
				TS: e.TUS, PID: pid, TID: 1, ID: id,
				Args: map[string]any{"pd": e.Unit, "hops": e.Hops},
			})
		case EvSampleLost:
			pid := chromePIDSample + e.Node
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
			pid := chromePIDSample + e.Node
			name(pid, fmt.Sprintf("node %d samples", e.Node))
			events = append(events, ChromeEvent{
				Name: fmt.Sprintf(sampleSpanFormat, e.Proc, e.Seq),
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
		case EvPipePut, EvPipeBlocked, EvPipeGet:
			pid := chromePIDPipe + e.Unit
			name(pid, fmt.Sprintf("pipe %d", e.Unit))
			events = append(events, ChromeEvent{
				Name: e.Kind.String(), Cat: "pipe", Ph: "i",
				TS: e.TUS, PID: pid, TID: 1, S: "t",
				Args: map[string]any{"node": e.Node, "proc": e.Proc, "seq": e.Seq, "n": e.N},
			})
		default:
			pid := chromePIDSample + e.Node
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

// replayEvent is the part of a trace event ReplayChrome reads. The
// identity args are pointers so an absent field is told from a zero.
type replayEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	ID   string  `json:"id"`
	Args struct {
		Node   *int   `json:"node"`
		Proc   *int   `json:"proc"`
		Seq    *int   `json:"seq"`
		Pd     *int   `json:"pd"`
		Hops   *int   `json:"hops"`
		Reason string `json:"reason"`
	} `json:"args"`
}

// sampleID is a sample's (node, proc, seq) identity as the trace writes it.
type sampleID struct{ node, proc, seq int }

// parseFlowID reads a flow id written by flowID, rejecting any other form.
func parseFlowID(id string) (sampleID, error) {
	var k sampleID
	if _, err := fmt.Sscanf(id, flowIDFormat, &k.node, &k.proc, &k.seq); err != nil || flowID(k.node, k.proc, k.seq) != id {
		return sampleID{}, fmt.Errorf("malformed flow id %q", id)
	}
	return k, nil
}

// ReplayChrome feeds the sample paths of a WriteChrome trace back through
// a fresh provenance engine's hooks, in trace order, and returns the
// engine: its Stages() and its delivered, duplicate and lost counts equal
// those of the live engine that watched the run. The
// mapping, event by event:
//
//   - a flow start "s" is SampleGenerated, at GenTime = ts;
//   - pipe-put and pipe-get are the pipe hooks;
//   - each message's run of sample-forwarded steps is one BatchForwarded
//     (WriteChrome emits a message's steps back to back);
//   - a sample-arrived step is BatchArrived;
//   - a delivered sample's "X" span is SampleDelivered at ts+dur;
//   - a flow end "f" that does not close the delivery just before it is
//     SampleLost, with the reason of the sample-lost instant before it.
//
// Samples whose generation is not in the trace (warmup carryover) cannot
// be decomposed: their events are skipped, and each of their deliveries
// is counted in incomplete. The trace comes from outside the program, so
// no identity sizes storage: each (node, proc) and, within it, each seq
// maps to a dense index in the order its flow start appears, which the
// writer's seq order leaves unchanged.
func ReplayChrome(r io.Reader) (eng *prov.Engine, incomplete int, err error) {
	var events []replayEvent
	if err := json.NewDecoder(r).Decode(&events); err != nil {
		return nil, 0, fmt.Errorf("obs: not a trace-event JSON array: %w", err)
	}
	samples := map[sampleID]resources.Sample{}
	dense := map[[2]int]int{} // (node, proc) → index into next
	var next []int            // next dense seq per process
	for i, e := range events {
		if e.Ph != "s" || e.Cat != flowCat {
			continue
		}
		id, err := parseFlowID(e.ID)
		if err != nil {
			return nil, 0, fmt.Errorf("obs: event %d: %w", i, err)
		}
		if _, dup := samples[id]; dup {
			return nil, 0, fmt.Errorf("obs: event %d: duplicate flow start %s", i, e.ID)
		}
		p, ok := dense[[2]int{id.node, id.proc}]
		if !ok {
			p = len(next)
			dense[[2]int{id.node, id.proc}] = p
			next = append(next, 0)
		}
		samples[id] = resources.Sample{GenTime: e.TS, Proc: p, Seq: next[p]}
		next[p]++
	}

	eng = prov.NewEngine()
	var (
		batch          []resources.Sample // the forward run being gathered
		fwdPd, fwdHops int
		fwdT           float64
		one            = make([]resources.Sample, 1)
		delivered      sampleID // the sample the event at deliveredAt delivered
		deliveredAt    = -1
		reason         procs.LossReason
		forwarded      = EvSampleForwarded.String()
		arrived        = EvSampleArrived.String()
		put            = EvPipePut.String()
		get            = EvPipeGet.String()
	)
	flush := func() {
		if len(batch) > 0 {
			eng.BatchForwarded(fwdPd, fwdT, batch, fwdHops)
			batch = batch[:0]
		}
	}
	for i, e := range events {
		if e.TS < 0 || e.Dur < 0 {
			return nil, 0, fmt.Errorf("obs: event %d: negative time", i)
		}
		step := e.Ph == "t" && e.Cat == flowCat
		if step && (e.Args.Pd == nil || e.Args.Hops == nil) {
			return nil, 0, fmt.Errorf("obs: event %d: flow step without pd and hops", i)
		}
		if !step || e.Name != forwarded || e.TS != fwdT || *e.Args.Pd != fwdPd || *e.Args.Hops != fwdHops {
			flush()
		}
		switch {
		case e.Ph == "s" && e.Cat == flowCat:
			id, _ := parseFlowID(e.ID)
			eng.SampleGenerated(e.TS, samples[id], false)
		case e.Cat == "pipe" && (e.Name == put || e.Name == get):
			if e.Args.Node == nil || e.Args.Proc == nil || e.Args.Seq == nil {
				return nil, 0, fmt.Errorf("obs: event %d: %s without a sample identity", i, e.Name)
			}
			s, ok := samples[sampleID{*e.Args.Node, *e.Args.Proc, *e.Args.Seq}]
			switch {
			case !ok:
			case e.Name == put:
				eng.PipePut(e.TS, s)
			default:
				eng.PipeGet(e.TS, s)
			}
		case step:
			id, err := parseFlowID(e.ID)
			if err != nil {
				return nil, 0, fmt.Errorf("obs: event %d: %w", i, err)
			}
			s, ok := samples[id]
			if !ok {
				continue
			}
			switch e.Name {
			case forwarded:
				if len(batch) == 0 {
					fwdPd, fwdT, fwdHops = *e.Args.Pd, e.TS, *e.Args.Hops
				}
				batch = append(batch, s)
			case arrived:
				one[0] = s
				eng.BatchArrived(*e.Args.Pd, e.TS, one, *e.Args.Hops)
			}
		case e.Ph == "X" && e.Cat == "sample":
			var proc, seq int
			if _, err := fmt.Sscanf(e.Name, sampleSpanFormat, &proc, &seq); err != nil || fmt.Sprintf(sampleSpanFormat, proc, seq) != e.Name {
				return nil, 0, fmt.Errorf("obs: event %d: malformed sample span %q", i, e.Name)
			}
			id := sampleID{e.PID - chromePIDSample, proc, seq}
			s, ok := samples[id]
			if !ok {
				incomplete++
				continue
			}
			eng.SampleDelivered(e.TS+e.Dur, s, e.Dur)
			delivered, deliveredAt = id, i
		case e.Ph == "i" && e.Name == EvSampleLost.String():
			reason = procs.LossThinned
			for r := procs.LossThinned; r <= procs.LossGiveUp; r++ {
				if r.String() == e.Args.Reason {
					reason = r
				}
			}
		case e.Ph == "f" && e.Cat == flowCat:
			id, err := parseFlowID(e.ID)
			if err != nil {
				return nil, 0, fmt.Errorf("obs: event %d: %w", i, err)
			}
			if s, ok := samples[id]; ok && !(deliveredAt == i-1 && id == delivered) {
				eng.SampleLost(0, e.TS, s, reason)
			}
		}
	}
	flush()
	return eng, incomplete, nil
}
