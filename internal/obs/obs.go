// Package obs is the in-simulator observability layer: sample-lifecycle
// tracing and metrics probes for the ROCC simulation stack.
//
// The design goal is zero overhead when disabled. Every instrumentation
// point in internal/des, internal/resources, and internal/procs is a
// nil-guarded hook field — a single predictable branch on the hot path
// when no observer is attached (proven by the nil-observer allocation
// tests and the allocation bounds of core's TestResultDigestPins). When a
// Collector is attached via core.Model.EnableObservability, the
// simulation emits:
//
//   - Occupancy spans: every CPU scheduler dispatch and network transfer,
//     with owner class, simulated start time, and length — the same
//     records the AIX kernel tracer produced for the paper's Section 5
//     measurements. Exportable as internal/trace records (rocctrace
//     analyzes simulated runs exactly like measured traces) and as Chrome
//     trace-event JSON loadable in Perfetto or chrome://tracing.
//   - Sample-lifecycle events: generation, pipe put/block/drop/get, batch
//     collection, forwarding, retransmission, and delivery, each tagged
//     with the sample's (node, proc, seq) identity and simulated time, so
//     a sample's full path from application write to main-process receipt
//     is reconstructible.
//   - Metrics: a small registry of counters and gauges, the main
//     process's delivery-latency histogram (stats.BucketHistogram, the
//     source of every run's p50/p95/p99), plus a periodic Sampler that
//     captures resource utilization, queue lengths, and pipe occupancy
//     as simulated-time series.
//
// The hook interfaces themselves live with the packages that call them
// (resources.PipeObserver, procs.Observer); Collector satisfies them
// structurally, so those packages stay free of any obs dependency. The
// per-sample lifecycle fan-out goes to the provenance engine
// (internal/obs/prov.Engine), which folds each sample's path into
// per-stage dwell times; it is the only consumer of that fan-out, so
// Collector.Flow names it directly.
//
// # Cost when attached
//
// An attached layer pays per message and per sampler tick where it can,
// not per event or per sample. No des.Observer is attached to the
// engine: Metrics.Events is the simulator's own dispatch count, less its
// value at the warmup reset, stored at every sampler tick and once more
// when the run ends, so a mid-run scrape sees it advance in steps and
// the final value is exact. The main process reports each received
// message through one MessageDelivered hook carrying its samples; the
// collector counts it once and the provenance engine folds the batch
// under one histogram lock. What an observed run reports — its Result,
// exposition and Chrome trace — is the same bytes either way (core's
// TestObservedOutputPins).
package obs

import (
	"rocc/internal/obs/prov"
	"rocc/internal/procs"
	"rocc/internal/resources"
)

// Collector is the one-stop observer wired through a model: it fans each
// instrumentation callback into the optional trace sink, metrics
// registry, and provenance engine. A nil Sink, Metrics, or Flow disables
// that third; the corresponding work is skipped.
//
// Collector satisfies resources.PipeObserver and procs.Observer. It is
// not a des.Observer: the events counter is read from the simulator's own
// dispatch count (Sampler.CountEvents), not bumped per event.
type Collector struct {
	Sink    *TraceSink
	Metrics *Metrics
	Flow    *prov.Engine
}

// NewCollector returns a collector with a trace sink when trace is set
// and the given metrics registry (nil disables the metrics half).
func NewCollector(trace bool, metrics *Metrics) *Collector {
	c := &Collector{Metrics: metrics}
	if trace {
		c.Sink = NewTraceSink()
	}
	return c
}

// ResetAccounting discards everything recorded so far: trace spans and
// events, metric counters, histograms, and sampler series. The model
// calls it at the end of the warmup period so observability data covers
// exactly the measured window, like every other accounting in the model.
func (c *Collector) ResetAccounting() {
	if c.Sink != nil {
		c.Sink.Reset()
	}
	if c.Metrics != nil {
		c.Metrics.Reset()
	}
	if c.Flow != nil {
		c.Flow.ResetAccounting()
	}
}

// Occupancy records one completed resource-occupancy slice. kind selects
// the resource; unit identifies the CPU (node index, or the host CPU's
// index) and is 0 for the network.
func (c *Collector) Occupancy(kind OccKind, unit int, owner string, start, length float64) {
	if c.Sink != nil {
		c.Sink.addSpan(kind, unit, owner, start, length)
	}
}

// SampleGenerated implements procs.Observer: an application process wrote
// one instrumentation sample (blocked reports a full-pipe stall).
func (c *Collector) SampleGenerated(t float64, s resources.Sample, blocked bool) {
	if c.Metrics != nil {
		c.Metrics.Generated.Add(1)
		if blocked {
			c.Metrics.BlockedPuts.Add(1)
		}
	}
	if c.Flow != nil {
		c.Flow.SampleGenerated(t, s, blocked)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvSampleGenerated, TUS: t, Node: s.Node, Proc: s.Proc, Seq: s.Seq})
		if blocked {
			c.Sink.addEvent(Event{Kind: EvSampleBlocked, TUS: t, Node: s.Node, Proc: s.Proc, Seq: s.Seq})
		}
	}
}

// PipePut implements resources.PipeObserver: a sample entered a pipe.
func (c *Collector) PipePut(pipe int, t float64, s resources.Sample, depth int) {
	if c.Flow != nil {
		c.Flow.PipePut(t, s)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvPipePut, TUS: t, Unit: pipe, Node: s.Node, Proc: s.Proc, Seq: s.Seq, N: depth})
	}
}

// PipeBlocked implements resources.PipeObserver: a writer stalled on a
// full pipe (the §4.3.3 effect).
func (c *Collector) PipeBlocked(pipe int, t float64, s resources.Sample) {
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvPipeBlocked, TUS: t, Unit: pipe, Node: s.Node, Proc: s.Proc, Seq: s.Seq})
	}
}

// PipeGet implements resources.PipeObserver: a daemon drained a sample.
func (c *Collector) PipeGet(pipe int, t float64, s resources.Sample, depth int) {
	if c.Flow != nil {
		c.Flow.PipeGet(t, s)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvPipeGet, TUS: t, Unit: pipe, Node: s.Node, Proc: s.Proc, Seq: s.Seq, N: depth})
	}
}

// BatchCollected implements procs.Observer: a daemon drained one batch
// from its local pipes.
func (c *Collector) BatchCollected(node int, t float64, samples int) {
	if c.Metrics != nil {
		c.Metrics.Batches.Add(1)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvBatchCollected, TUS: t, Node: node, N: samples})
	}
}

// MessageForwarded implements procs.Observer: a daemon put a message on
// the network toward its parent or the main process.
func (c *Collector) MessageForwarded(node int, t float64, batch []resources.Sample, hops int) {
	if c.Metrics != nil {
		c.Metrics.Forwards.Add(1)
	}
	if c.Flow != nil {
		c.Flow.BatchForwarded(node, t, batch, hops)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvMessageForwarded, TUS: t, Node: node, N: len(batch), Hops: hops})
		for _, s := range batch {
			c.Sink.addEvent(Event{Kind: EvSampleForwarded, TUS: t, Unit: node, Node: s.Node, Proc: s.Proc, Seq: s.Seq, Hops: hops})
		}
	}
}

// MessageReceived implements procs.Observer: a relay daemon accepted a
// message from a child for merging (tree forwarding).
func (c *Collector) MessageReceived(node int, t float64, batch []resources.Sample, hops int) {
	if c.Flow != nil {
		c.Flow.BatchArrived(node, t, batch, hops)
	}
	if c.Sink != nil {
		for _, s := range batch {
			c.Sink.addEvent(Event{Kind: EvSampleArrived, TUS: t, Unit: node, Node: s.Node, Proc: s.Proc, Seq: s.Seq, Hops: hops})
		}
	}
}

// MessageDelivered implements procs.Observer: the main Paradyn process
// received one forwarded message, and each sample in batch completed its
// generation-to-receipt journey with end-to-end delay t − s.GenTime. The
// main process has already observed every latency into Metrics.Latency.
// The counters move once per message; the trace gets each sample's
// delivery and then the message's.
func (c *Collector) MessageDelivered(t float64, batch []resources.Sample, hops int) {
	if c.Metrics != nil {
		c.Metrics.Delivered.Add(uint64(len(batch)))
		c.Metrics.DeliveredMsgs.Add(1)
	}
	if c.Flow != nil {
		c.Flow.BatchDelivered(t, batch)
	}
	if c.Sink != nil {
		for _, s := range batch {
			c.Sink.addEvent(Event{Kind: EvSampleDelivered, TUS: s.GenTime, DurUS: t - s.GenTime, Node: s.Node, Proc: s.Proc, Seq: s.Seq})
		}
		c.Sink.addEvent(Event{Kind: EvMessageDelivered, TUS: t, N: len(batch), Hops: hops})
	}
}

// SampleLost implements procs.Observer: one sample left the system
// without reaching the main process (thinning, crash, link loss, or an
// exhausted retransmission budget).
func (c *Collector) SampleLost(node int, t float64, s resources.Sample, reason procs.LossReason) {
	if c.Metrics != nil {
		c.Metrics.Lost.Add(1)
	}
	if c.Flow != nil {
		c.Flow.SampleLost(node, t, s, reason)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvSampleLost, TUS: t, Unit: node, Node: s.Node, Proc: s.Proc, Seq: s.Seq, N: int(reason)})
	}
}

// DaemonCrashed implements procs.Observer: a daemon went down, losing
// lostSamples of in-memory state.
func (c *Collector) DaemonCrashed(node int, t float64, lostSamples int) {
	if c.Metrics != nil {
		c.Metrics.Crashes.Add(1)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvDaemonCrash, TUS: t, Node: node, N: lostSamples})
	}
}

// DaemonRestored implements procs.Observer: a crashed daemon came back.
func (c *Collector) DaemonRestored(node int, t float64) {
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvDaemonRestore, TUS: t, Node: node})
	}
}

// MessageRetransmitted implements procs.Observer: a resilient uplink
// retried an unacknowledged message (attempt counts from 1).
func (c *Collector) MessageRetransmitted(node int, t float64, attempt int) {
	if c.Metrics != nil {
		c.Metrics.Retransmits.Add(1)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvRetransmit, TUS: t, Node: node, N: attempt})
	}
}
