// Package prov is the streaming per-sample provenance engine: it
// consumes the sample-lifecycle hook fan-out (obs.Collector.Flow) and folds
// each sample's path through the instrumentation system into a per-stage
// dwell-time decomposition — where the paper's aggregate
// generation→delivery latency (Figure 16) actually accrues.
//
// # Stage state machine
//
// A sample's path visits fixed boundary instants: generation (genT), pipe
// admission (putT — later than genT only for a blocked writer), pipe
// drain (getT), first network hand-off (fwdT), then alternating arrivals
// and re-forwards at relay daemons, and finally delivery at the main
// process (devT). The engine folds those instants into six stages whose
// telescoping sum is exactly devT − genT, the model's measured latency:
//
//	pipe-wait       = (putT − genT) + (getT − maxPut)
//	batch-residency = maxPut − putT
//	daemon-service  = fwdT − getT
//	network-transit = Σ over legs (arrival − forward)
//	merge           = Σ over relays (re-forward − arrival)
//	main-receipt    = devT − last arrival (structurally 0: the model
//	                  measures latency at the receive instant)
//
// maxPut is the latest pipe-admission instant over the message's batch,
// captured at the first forward (hops == 1): the time a sample sits in
// the pipe waiting for its batch to fill is the price of the BF policy
// (batch-residency), while the remainder of the pipe dwell is queueing
// proper (pipe-wait).
//
// # Determinism and memory bound
//
// A sample's identity is (node, proc, seq), and Seq counts up per process
// and never resets, so one process's open records always form a
// contiguous run of sequence numbers. The engine keeps one window per
// (node, proc): value records in a slice indexed by seq − base, with a
// head offset that advances past closed records and amortized compaction
// when an append reaches capacity. A lookup is two slice indexings and a
// subtraction — no hashing and no per-record pointer. A window spans its
// process's oldest open sample to its newest, so a process's memory is
// bounded by the widest such span it reaches.
// All aggregation happens in simulation-event order, so output is
// byte-deterministic at any worker count and event calendar. When
// provenance is disabled the engine does not exist and every hook site is
// one nil-check branch (pinned by the allocation tests).
//
// # Hook order
//
// The application fires SampleGenerated only after Pipe.Put returns, and
// Put's synchronous callbacks may already have ended the sample: a daemon
// woken by the put can drain and thin it (SampleLost). Thinning is the
// only hook that can end a sample before SampleGenerated. So no hook may
// assume it is first, and a creating hook (SampleGenerated, PipePut,
// PipeGet) must never reopen an identity the engine has already seen.
// Each window tracks the process's seq high-water mark: identities below
// it are either open or closed for good.
//
// Each hook looks a sample's record up at most once per boundary. The
// write path's two hooks (PipePut and SampleGenerated, in either order)
// share one lookup: the engine memoizes the record it opened last, by
// identity, and clears the memo whenever a record closes (a window that
// trim empties reuses its slots). Only the opening of a record extends a
// window, which may move its records, and that opening replaces the memo,
// so the memo only ever names an open record where it lies. The drain
// (PipeGet) looks the record up once. The first forward collects the
// batch's records in one pass into a reused slice, takes maxPut over them
// and updates them in place. Delivery reads the record where it lies and
// closes it, and BatchDelivered hands the message's stage rows to the
// histograms under one lock. There a run of equal values down a stage
// costs one bucket lookup
// (stats.BucketHistogramSet.ObserveSet): under direct forwarding a
// message's network-transit, merge and main-receipt dwells are one value
// for all its samples, and so is daemon-service when its samples were
// drained together. Counts, sums and extremes still advance per sample in
// sample order, so the stage histograms hold the same bytes as per-sample
// observation.
//
// # Fault interactions
//
// Thinning, daemon crashes, link losses, and exhausted retransmission
// budgets all fire SampleLost, which closes the record without observing
// stages. Injected duplicates on unprotected links deliver the same
// sample twice: the first delivery closes the record; later deliveries
// (or losses) of an already-closed identity are tallied as duplicates so
// the engine's totals still reconcile exactly with the aggregate latency
// histogram, which observes every delivery.
package prov

import (
	"math"

	"rocc/internal/procs"
	"rocc/internal/resources"
	"rocc/internal/stats"
)

// Stage indexes one dwell-time stage of a sample's path.
type Stage int

const (
	// StagePipeWait: queueing in the application→daemon pipe (blocked-put
	// wait plus post-batch-complete drain wait).
	StagePipeWait Stage = iota
	// StageBatchResidency: waiting in the pipe for the forwarding batch to
	// fill — the BF policy's latency price.
	StageBatchResidency
	// StageDaemonService: daemon CPU service between drain and network
	// hand-off (collection plus the forwarding system call).
	StageDaemonService
	// StageNetworkTransit: total network occupancy over all hops.
	StageNetworkTransit
	// StageMerge: relay-daemon merge service in tree forwarding.
	StageMerge
	// StageMainReceipt: delivery instant minus final network arrival
	// (structurally zero; kept so the decomposition is explicit).
	StageMainReceipt

	// NumStages is the number of stages.
	NumStages
)

// String returns the stage's kebab-case label.
func (s Stage) String() string {
	switch s {
	case StagePipeWait:
		return "pipe-wait"
	case StageBatchResidency:
		return "batch-residency"
	case StageDaemonService:
		return "daemon-service"
	case StageNetworkTransit:
		return "network-transit"
	case StageMerge:
		return "merge"
	case StageMainReceipt:
		return "main-receipt"
	default:
		return "unknown"
	}
}

// metricName returns the stage's OpenMetrics-safe histogram name.
func (s Stage) metricName() string {
	switch s {
	case StagePipeWait:
		return "latency_stage_pipe_wait_us"
	case StageBatchResidency:
		return "latency_stage_batch_residency_us"
	case StageDaemonService:
		return "latency_stage_daemon_service_us"
	case StageNetworkTransit:
		return "latency_stage_network_transit_us"
	case StageMerge:
		return "latency_stage_merge_us"
	default:
		return "latency_stage_main_receipt_us"
	}
}

// record is one in-flight sample's provenance state, stored by value in
// its process's window (64 bytes). Generation time is not kept: every
// hook's Sample carries it as GenTime.
type record struct {
	putT   float64
	getT   float64
	maxPut float64 // latest putT over the forwarded batch (set at hops==1)
	fwdT   float64 // first network hand-off
	lastT  float64 // latest path boundary (for network/merge legs)
	net    float64 // accumulated network-transit dwell
	merge  float64 // accumulated relay-merge dwell

	// hops and inTransit gate the leg accumulators against duplicate
	// copies of the same message (injected dups share the sample's
	// identity): an arrival only closes a network leg when the record
	// believes the sample is in transit at that depth, and a relay
	// re-forward only closes a merge leg at the next depth.
	hops      int32
	open      bool
	inTransit bool
	hasGet    bool
	hasFwd    bool
}

// window holds one process's records for the contiguous seq range
// base+head .. base+len(recs)-1. The slot at head is open whenever the
// window is non-empty; every seq below base+len(recs) has been seen.
type window struct {
	recs []record
	head int
	base int // seq of recs[0]
}

// next returns the process's seq high-water mark: the first unseen seq.
func (w *window) next() int { return w.base + len(w.recs) }

// find returns seq's open record, nil when it is closed or unseen.
func (w *window) find(seq int) *record {
	i := seq - w.base
	if i < w.head || i >= len(w.recs) || !w.recs[i].open {
		return nil
	}
	return &w.recs[i]
}

// extend marks every seq up to and including seq (>= next()) as seen and
// returns seq's slot, zero and closed. An empty window restarts at seq;
// a full one compacts in place when at least half of it lies before head,
// and grows otherwise, so appends stay amortized O(1). Storage is never
// given back: a process keeps the capacity of its widest span, and
// shrinking on drain measured slower, with a larger peak RSS, because
// batching refills the window right away.
func (w *window) extend(seq int) *record {
	if len(w.recs) == 0 {
		w.base = seq
	}
	for w.next() <= seq {
		if len(w.recs) == cap(w.recs) && w.head > 0 && 2*w.head >= len(w.recs) {
			w.recs = w.recs[:copy(w.recs, w.recs[w.head:])]
			w.base, w.head = w.base+w.head, 0
		}
		w.recs = append(w.recs, record{})
	}
	return &w.recs[len(w.recs)-1]
}

// trim advances head past closed records; a window with none open
// empties so its storage is reused from slot 0.
func (w *window) trim() {
	for w.head < len(w.recs) && !w.recs[w.head].open {
		w.head++
	}
	if w.head == len(w.recs) {
		w.recs, w.base, w.head = w.recs[:0], w.next(), 0
	}
}

// StageSummary is one stage's aggregate over all delivered samples.
type StageSummary struct {
	// Stage is the kebab-case stage label.
	Stage string
	// MeanUS/P50US/P95US/P99US summarize the stage's dwell distribution
	// in microseconds (quantiles interpolated from the histogram).
	MeanUS float64
	P50US  float64
	P95US  float64
	P99US  float64
	// SumUS is the stage's exact total dwell over all delivered samples.
	SumUS float64
	// SharePct is SumUS as a percentage of the total across stages.
	SharePct float64
}

// Engine is the provenance engine; wire it as obs.Collector.Flow. Its
// hook methods mirror the procs.Observer and resources.PipeObserver
// callbacks, with batches passed as caller-owned slices that must not be
// retained. Not safe for concurrent use — it is fed from the single
// simulation goroutine, like the trace sink.
type Engine struct {
	wins [][]window // by node, then proc
	open int        // records open across all windows

	// last is the record get opened most recently, and lastID its
	// identity; nil once any record closes (see "Hook order").
	last   *record
	lastID id

	stages *stats.BucketHistogramSet // one member per Stage, one lock; their sums are the stage totals
	rows   []float64                 // BatchDelivered's stage rows, reused across messages
	recs   []*record                 // BatchForwarded's member records, reused across messages

	// Counters over the measured window (Reset clears them at the warmup
	// boundary; in-flight records survive, mirroring the model's latency
	// accounting, which measures carryover samples from generation).
	generated    uint64
	delivered    uint64
	lost         [4]uint64 // by procs.LossReason
	dupDelivered uint64    // deliveries of an already-closed identity
	dupLost      uint64    // losses of an already-closed identity

	latencySumUS    float64 // Σ latency over first deliveries
	dupLatencySumUS float64 // Σ latency over duplicate deliveries
	maxCloseErrUS   float64 // max |Σ stages − latency| over first deliveries
}

// id is a sample's identity.
type id struct{ node, proc, seq int }

func idOf(s resources.Sample) id { return id{s.Node, s.Proc, s.Seq} }

// NewEngine returns an empty engine with one histogram per stage,
// spanning sub-microsecond dwell to ~12 minutes in half-octave buckets.
// The stage histograms share one lock, taken once per delivery.
func NewEngine() *Engine {
	var names [NumStages]string
	for i := Stage(0); i < NumStages; i++ {
		names[i] = i.metricName()
	}
	return &Engine{stages: stats.NewBucketHistogramSet(stats.ExpBuckets(1, math.Sqrt2, 60), names[:]...)}
}

// window returns the window of the sample's process, nil when the engine
// has none for it yet.
func (e *Engine) window(s resources.Sample) *window {
	if uint(s.Node) < uint(len(e.wins)) && uint(s.Proc) < uint(len(e.wins[s.Node])) {
		return &e.wins[s.Node][s.Proc]
	}
	return nil
}

// grow returns the window of the sample's process, allocating it first
// (negative identities, which the model never produces, get none).
func (e *Engine) grow(s resources.Sample) *window {
	if w := e.window(s); w != nil || s.Node < 0 || s.Proc < 0 {
		return w
	}
	for len(e.wins) <= s.Node {
		e.wins = append(e.wins, nil)
	}
	for len(e.wins[s.Node]) <= s.Proc {
		e.wins[s.Node] = append(e.wins[s.Node], window{})
	}
	return &e.wins[s.Node][s.Proc]
}

// find returns the identity's open record, nil when there is none.
func (e *Engine) find(s resources.Sample) *record {
	if w := e.window(s); w != nil {
		return w.find(s.Seq)
	}
	return nil
}

// get returns the identity's open record, opening it on first sight.
// Hook ordering is not assumed: the pipe hooks fire before
// SampleGenerated in the application's write path, so any creating hook
// may be the first — the record starts from s.GenTime. An identity
// already seen and closed is never reopened: get returns nil. The record
// it opened last is memoized, so the write path's second hook finds it
// without a lookup.
func (e *Engine) get(s resources.Sample) *record {
	if e.last != nil && e.lastID == idOf(s) {
		return e.last
	}
	w := e.grow(s)
	if w == nil {
		return nil
	}
	if s.Seq < w.next() {
		return w.find(s.Seq)
	}
	r := w.extend(s.Seq)
	r.open = true
	r.putT = s.GenTime
	r.maxPut = s.GenTime
	e.open++
	e.last, e.lastID = r, idOf(s)
	return r
}

// closeIn closes r, an open record of w, and clears the memo: trim may
// empty w, whose next extend then reuses r's slot.
func (e *Engine) closeIn(w *window, r *record) {
	r.open = false
	e.open--
	w.trim()
	e.last = nil
}

// close closes the identity's record; it reports whether one was open.
func (e *Engine) close(s resources.Sample) bool {
	w := e.window(s)
	if w == nil {
		return false
	}
	r := w.find(s.Seq)
	if r == nil {
		return false
	}
	e.closeIn(w, r)
	return true
}

// SampleGenerated opens the sample's record; blocked reports a full-pipe
// stall.
func (e *Engine) SampleGenerated(t float64, s resources.Sample, blocked bool) {
	e.get(s)
	e.generated++
}

// PipePut records pipe admission (the admit time for a blocked writer).
func (e *Engine) PipePut(t float64, s resources.Sample) {
	r := e.get(s)
	if r == nil {
		return
	}
	r.putT = t
	r.maxPut = t
}

// PipeGet records that a daemon drained the sample from its pipe.
func (e *Engine) PipeGet(t float64, s resources.Sample) {
	r := e.get(s)
	if r == nil {
		return
	}
	r.getT = t
	r.hasGet = true
}

// BatchForwarded records that a daemon handed a message carrying batch to
// the network (hops==1: first forward after collection; >1: relay). At
// the first hop the batch defines maxPut — the latest pipe admission
// across the message — which splits each member's pipe dwell into
// batch-residency and pipe-wait proper. Relay re-forwards close a merge
// leg. Each member's record is looked up once: the first hop collects
// them while taking maxPut, then updates them in place (nothing opens or
// closes in between, so their addresses hold).
func (e *Engine) BatchForwarded(node int, t float64, batch []resources.Sample, hops int) {
	if hops == 1 {
		maxPut := math.Inf(-1)
		recs := e.recs[:0]
		for _, s := range batch {
			if r := e.find(s); r != nil {
				recs = append(recs, r)
				if r.putT > maxPut {
					maxPut = r.putT
				}
			}
		}
		for _, r := range recs {
			if !r.hasGet {
				r.getT = t
			}
			if !r.hasFwd { // first forward wins (retransmits re-occupy the net, not the daemon)
				r.hasFwd = true
				r.fwdT = t
				if maxPut > r.maxPut {
					r.maxPut = maxPut
				}
				r.lastT = t
				r.hops = 1
				r.inTransit = true
			}
		}
		e.recs = recs
		return
	}
	for _, s := range batch {
		r := e.find(s)
		if r != nil && r.hasFwd && !r.inTransit && hops == int(r.hops)+1 {
			r.merge += t - r.lastT
			r.lastT = t
			r.hops = int32(hops)
			r.inTransit = true
		}
	}
}

// BatchArrived records that a relay daemon accepted a message from a
// child; the receipt closes one network leg.
func (e *Engine) BatchArrived(node int, t float64, batch []resources.Sample, hops int) {
	for _, s := range batch {
		r := e.find(s)
		if r != nil && r.hasFwd && r.inTransit && hops == int(r.hops) {
			r.net += t - r.lastT
			r.lastT = t
			r.inTransit = false
		}
	}
}

// SampleDelivered records that the sample reached the main process: the
// path is complete. The final network leg ends at the delivery instant;
// the six stages are observed under one histogram lock and the record
// closes. A delivery for an identity with no open record is an injected
// duplicate (the first delivery already closed it): it is tallied
// separately so totals still reconcile with the aggregate latency
// histogram, which observes every delivery.
func (e *Engine) SampleDelivered(t float64, s resources.Sample, latencyUS float64) {
	var d [NumStages]float64
	if e.deliver(t, s, latencyUS, &d) {
		e.stages.ObserveSet(d[:])
	}
}

// BatchDelivered records a message's delivery to the main process at t:
// each sample in batch is delivered as by SampleDelivered with latency
// t − s.GenTime, and the stages of the whole batch are observed under a
// single acquisition of the histogram lock.
func (e *Engine) BatchDelivered(t float64, batch []resources.Sample) {
	if n := len(batch) * int(NumStages); len(e.rows) < n {
		e.rows = make([]float64, n)
	}
	n := 0 // stage values written: one row per first delivery
	for _, s := range batch {
		if e.deliver(t, s, t-s.GenTime, (*[NumStages]float64)(e.rows[n:])) {
			n += int(NumStages)
		}
	}
	e.stages.ObserveSet(e.rows[:n])
}

// deliver closes the sample's record, reading it in place, folds its
// accounting and writes its stage dwells to d for the histograms; it
// reports false for a duplicate.
func (e *Engine) deliver(t float64, s resources.Sample, latencyUS float64, d *[NumStages]float64) bool {
	var r *record
	w := e.window(s)
	if w != nil {
		r = w.find(s.Seq)
	}
	if r == nil {
		e.dupDelivered++
		e.dupLatencySumUS += latencyUS
		return false
	}
	getT, maxPut, fwdT, lastT := r.getT, r.maxPut, r.fwdT, r.lastT
	if !r.hasFwd {
		// Degenerate path (no forward observed — cannot happen in the
		// model, but stay total): attribute everything to pipe-wait.
		getT, maxPut, fwdT, lastT = t, r.putT, t, t
	}
	pipe := (r.putT - s.GenTime) + (getT - maxPut)
	batch := maxPut - r.putT
	daemon := fwdT - getT
	net := r.net + (t - lastT)
	merge := r.merge
	e.closeIn(w, r)

	sum := pipe + batch + daemon + net + merge // main-receipt is 0
	d[StagePipeWait] = nonNegative(pipe)
	d[StageBatchResidency] = nonNegative(batch)
	d[StageDaemonService] = nonNegative(daemon)
	d[StageNetworkTransit] = nonNegative(net)
	d[StageMerge] = nonNegative(merge)
	d[StageMainReceipt] = 0
	e.delivered++
	e.latencySumUS += latencyUS
	if err := math.Abs(sum - latencyUS); err > e.maxCloseErrUS {
		e.maxCloseErrUS = err
	}
	return true
}

// nonNegative clears float cancellation residue at a zero-width stage.
func nonNegative(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// SampleLost records that the sample left the system without delivery.
// The record closes without stage observations; a loss for an
// already-closed identity (a duplicate dying after the original closed)
// is tallied separately.
func (e *Engine) SampleLost(node int, t float64, s resources.Sample, reason procs.LossReason) {
	if !e.close(s) {
		e.dupLost++
		return
	}
	if reason >= 0 && int(reason) < len(e.lost) {
		e.lost[reason]++
	}
}

// ResetAccounting is warmup removal. All aggregates clear; in-flight
// records survive, so a sample generated during warmup but delivered in
// the measured window decomposes over its full path — exactly how the
// model's latency accumulator measures it.
func (e *Engine) ResetAccounting() {
	for i := Stage(0); i < NumStages; i++ {
		e.Histogram(i).Reset()
	}
	e.generated, e.delivered = 0, 0
	e.lost = [4]uint64{}
	e.dupDelivered, e.dupLost = 0, 0
	e.latencySumUS, e.dupLatencySumUS, e.maxCloseErrUS = 0, 0, 0
}

// Histogram returns the stage's dwell histogram (live: the exporter
// snapshots it mid-run, under the lock the stage histograms share).
func (e *Engine) Histogram(s Stage) *stats.BucketHistogram { return e.stages.Histogram(int(s)) }

// Stages summarizes every stage over the delivered samples, in stage
// order. Shares are exact sum ratios, so they are byte-deterministic.
func (e *Engine) Stages() []StageSummary {
	total := e.StageSumUS()
	out := make([]StageSummary, 0, NumStages)
	for i := Stage(0); i < NumStages; i++ {
		h := e.Histogram(i)
		s := StageSummary{
			Stage:  i.String(),
			MeanUS: h.Mean(),
			P50US:  h.Quantile(0.50),
			P95US:  h.Quantile(0.95),
			P99US:  h.Quantile(0.99),
			SumUS:  h.Sum(),
		}
		if total > 0 {
			s.SharePct = s.SumUS / total * 100
		}
		out = append(out, s)
	}
	return out
}

// Accounting counters (measured window).

// Generated returns samples seen generated.
func (e *Engine) Generated() uint64 { return e.generated }

// Delivered returns first deliveries (duplicates excluded).
func (e *Engine) Delivered() uint64 { return e.delivered }

// Lost returns first losses with the given reason.
func (e *Engine) Lost(reason procs.LossReason) uint64 {
	if reason < 0 || int(reason) >= len(e.lost) {
		return 0
	}
	return e.lost[reason]
}

// LostTotal returns first losses over all reasons.
func (e *Engine) LostTotal() uint64 {
	var n uint64
	for _, v := range e.lost {
		n += v
	}
	return n
}

// DupDelivered returns deliveries of already-closed identities (injected
// duplicates reaching the main process).
func (e *Engine) DupDelivered() uint64 { return e.dupDelivered }

// DupLost returns losses of already-closed identities.
func (e *Engine) DupLost() uint64 { return e.dupLost }

// InFlight returns the number of open records.
func (e *Engine) InFlight() int { return e.open }

// WindowSlots returns the record slots the windows span: per process, its
// oldest open seq through its newest seen one. It is at least InFlight and
// equals it when every process's open records are contiguous.
func (e *Engine) WindowSlots() int {
	n := 0
	for _, ws := range e.wins {
		for _, w := range ws {
			n += len(w.recs) - w.head
		}
	}
	return n
}

// LatencySumUS returns the exact latency total over first deliveries.
func (e *Engine) LatencySumUS() float64 { return e.latencySumUS }

// DupLatencySumUS returns the latency total over duplicate deliveries.
func (e *Engine) DupLatencySumUS() float64 { return e.dupLatencySumUS }

// StageSumUS returns the exact total dwell across all stages over first
// deliveries — equal to LatencySumUS up to float tolerance.
func (e *Engine) StageSumUS() float64 {
	total := 0.0
	for i := Stage(0); i < NumStages; i++ {
		total += e.Histogram(i).Sum()
	}
	return total
}

// MaxCloseErrUS returns the largest per-sample |Σ stages − latency|
// closure error seen — the "for every sample" decomposition guarantee.
func (e *Engine) MaxCloseErrUS() float64 { return e.maxCloseErrUS }
