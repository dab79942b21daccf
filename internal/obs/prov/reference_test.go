package prov

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"rocc/internal/procs"
	"rocc/internal/resources"
	"rocc/internal/stats"
)

// refEngine is the stage state machine written the plain way, as the
// referee for Engine: records in a map keyed by identity, every hook
// resolving its samples afresh, delivery copying the record out before
// closing it, and every stage value observed one at a time through
// BucketHistogram.Observe into its own histogram, with the stage totals
// kept alongside. It implements the same hooks with the same semantics
// (never reopening a seen identity, the hop guards, the duplicate tallies).
type refEngine struct {
	next map[[2]int]int // per (node, proc): the first unseen seq
	recs map[id]*record

	hist [NumStages]*stats.BucketHistogram
	sums [NumStages]float64

	generated, delivered          uint64
	lost                          [4]uint64
	dupDelivered, dupLost         uint64
	latencySumUS, dupLatencySumUS float64
	maxCloseErrUS                 float64
}

func newRefEngine() *refEngine {
	e := &refEngine{next: map[[2]int]int{}, recs: map[id]*record{}}
	for i := range e.hist {
		e.hist[i] = stats.NewBucketHistogram(Stage(i).metricName(), stats.ExpBuckets(1, math.Sqrt2, 60))
	}
	return e
}

// get opens the identity on first sight and never reopens a seen one.
func (e *refEngine) get(s resources.Sample) *record {
	if s.Node < 0 || s.Proc < 0 {
		return nil
	}
	p := [2]int{s.Node, s.Proc}
	if next, ok := e.next[p]; ok && s.Seq < next {
		return e.recs[idOf(s)]
	}
	e.next[p] = s.Seq + 1
	r := &record{putT: s.GenTime, maxPut: s.GenTime}
	e.recs[idOf(s)] = r
	return r
}

func (e *refEngine) close(s resources.Sample) (record, bool) {
	r, ok := e.recs[idOf(s)]
	if !ok {
		return record{}, false
	}
	delete(e.recs, idOf(s))
	return *r, true
}

func (e *refEngine) SampleGenerated(t float64, s resources.Sample, blocked bool) {
	e.get(s)
	e.generated++
}

func (e *refEngine) PipePut(t float64, s resources.Sample) {
	if r := e.get(s); r != nil {
		r.putT, r.maxPut = t, t
	}
}

func (e *refEngine) PipeGet(t float64, s resources.Sample) {
	if r := e.get(s); r != nil {
		r.getT, r.hasGet = t, true
	}
}

func (e *refEngine) BatchForwarded(node int, t float64, batch []resources.Sample, hops int) {
	if hops == 1 {
		maxPut := math.Inf(-1)
		for _, s := range batch {
			if r := e.recs[idOf(s)]; r != nil && r.putT > maxPut {
				maxPut = r.putT
			}
		}
		for _, s := range batch {
			r := e.recs[idOf(s)]
			if r == nil {
				continue
			}
			if !r.hasGet {
				r.getT = t
			}
			if !r.hasFwd {
				r.hasFwd, r.fwdT = true, t
				if maxPut > r.maxPut {
					r.maxPut = maxPut
				}
				r.lastT, r.hops, r.inTransit = t, 1, true
			}
		}
		return
	}
	for _, s := range batch {
		if r := e.recs[idOf(s)]; r != nil && r.hasFwd && !r.inTransit && hops == int(r.hops)+1 {
			r.merge += t - r.lastT
			r.lastT, r.hops, r.inTransit = t, int32(hops), true
		}
	}
}

func (e *refEngine) BatchArrived(node int, t float64, batch []resources.Sample, hops int) {
	for _, s := range batch {
		if r := e.recs[idOf(s)]; r != nil && r.hasFwd && r.inTransit && hops == int(r.hops) {
			r.net += t - r.lastT
			r.lastT, r.inTransit = t, false
		}
	}
}

func (e *refEngine) SampleDelivered(t float64, s resources.Sample, latencyUS float64) {
	r, ok := e.close(s)
	if !ok {
		e.dupDelivered++
		e.dupLatencySumUS += latencyUS
		return
	}
	if !r.hasFwd {
		r.fwdT, r.getT, r.maxPut, r.lastT = t, t, r.putT, t
	}
	r.net += t - r.lastT
	d := [NumStages]float64{
		StagePipeWait:       (r.putT - s.GenTime) + (r.getT - r.maxPut),
		StageBatchResidency: r.maxPut - r.putT,
		StageDaemonService:  r.fwdT - r.getT,
		StageNetworkTransit: r.net,
		StageMerge:          r.merge,
		StageMainReceipt:    0,
	}
	sum := 0.0
	for i, v := range d {
		sum += v
		if v < 0 {
			d[i] = 0
		}
		e.sums[i] += d[i]
		e.hist[i].Observe(d[i])
	}
	e.delivered++
	e.latencySumUS += latencyUS
	if err := math.Abs(sum - latencyUS); err > e.maxCloseErrUS {
		e.maxCloseErrUS = err
	}
}

func (e *refEngine) SampleLost(node int, t float64, s resources.Sample, reason procs.LossReason) {
	if _, ok := e.close(s); !ok {
		e.dupLost++
		return
	}
	if reason >= 0 && int(reason) < len(e.lost) {
		e.lost[reason]++
	}
}

func (e *refEngine) Stages() []StageSummary {
	total := 0.0
	for _, v := range e.sums {
		total += v
	}
	var out []StageSummary
	for i, h := range e.hist {
		s := StageSummary{Stage: Stage(i).String(), MeanUS: h.Mean(), P50US: h.Quantile(0.50),
			P95US: h.Quantile(0.95), P99US: h.Quantile(0.99), SumUS: e.sums[i]}
		if total > 0 {
			s.SharePct = e.sums[i] / total * 100
		}
		out = append(out, s)
	}
	return out
}

// windowSlots is what Engine.WindowSlots must report: per process, its
// first unseen seq less its oldest open one.
func (e *refEngine) windowSlots() int {
	oldest := map[[2]int]int{}
	for k := range e.recs {
		p := [2]int{k.node, k.proc}
		if o, ok := oldest[p]; !ok || k.seq < o {
			oldest[p] = k.seq
		}
	}
	n := 0
	for p, o := range oldest {
		n += e.next[p] - o
	}
	return n
}

// hooks is the hook surface both engines share, minus delivery.
type hooks interface {
	SampleGenerated(t float64, s resources.Sample, blocked bool)
	PipePut(t float64, s resources.Sample)
	PipeGet(t float64, s resources.Sample)
	BatchForwarded(node int, t float64, batch []resources.Sample, hops int)
	BatchArrived(node int, t float64, batch []resources.Sample, hops int)
	SampleLost(node int, t float64, s resources.Sample, reason procs.LossReason)
}

// scriptCase selects which hook patterns a script mixes in.
type scriptCase struct {
	name     string
	tree     bool // relays: arrival and re-forward legs, with stale duplicates
	blocked  bool // writers that block: SampleGenerated first, PipePut later
	thin     bool // thinning in the drain path
	dups     bool // duplicates delivered inside a batch and in later batches
	lossLate bool // losses of identities already closed, and link losses
	unseen   bool // messages delivered with no forward seen (the degenerate path)
}

// runScript drives e through a random but reproducible lifecycle of
// samples from three nodes with two processes each, calling deliver once
// per message. Times sit on a quarter-microsecond grid and most
// messages are drained at one instant, so stage values repeat within and
// across messages, as they do in the model.
func runScript(seed uint64, c scriptCase, e hooks, deliver func(t float64, batch []resources.Sample)) {
	rnd := rand.New(rand.NewPCG(seed, 0x70726f76))
	t := 0.0
	tick := func(max int) float64 { t += float64(rnd.IntN(max)) / 4; return t }
	type proc struct {
		seq     int
		held    []resources.Sample // generated while blocked, put later
		pipe    []resources.Sample
		drained []resources.Sample
	}
	const nodes, perNode = 3, 2
	ps := make([]proc, nodes*perNode)
	var delivered []resources.Sample
	for round := 0; round < 60; round++ {
		for i := range ps {
			p := &ps[i]
			node, pid := i/perNode, i%perNode
			for _, s := range p.held { // the blocked writes are admitted
				e.PipePut(tick(8), s)
				p.pipe = append(p.pipe, s)
			}
			p.held = p.held[:0]
			for k := rnd.IntN(6); k > 0; k-- {
				s := resources.Sample{GenTime: tick(12), Node: node, Proc: pid, Seq: p.seq}
				p.seq++
				switch x := rnd.IntN(20); {
				case c.blocked && x < 5:
					e.SampleGenerated(s.GenTime, s, true)
					p.held = append(p.held, s)
				case c.thin && x == 5: // the put wakes the daemon, which drains and thins it
					e.PipePut(s.GenTime, s)
					e.PipeGet(s.GenTime, s)
					e.SampleLost(node, s.GenTime, s, procs.LossThinned)
					e.SampleGenerated(s.GenTime, s, false)
				case x == 6: // the put wakes the daemon, which drains it
					e.PipePut(s.GenTime, s)
					e.PipeGet(s.GenTime, s)
					e.SampleGenerated(s.GenTime, s, false)
					p.drained = append(p.drained, s)
				case x < 9: // the order the engine's unit tests use
					e.SampleGenerated(s.GenTime, s, false)
					e.PipePut(s.GenTime, s)
					p.pipe = append(p.pipe, s)
				default: // the model's order
					e.PipePut(s.GenTime, s)
					e.SampleGenerated(s.GenTime, s, false)
					p.pipe = append(p.pipe, s)
				}
			}
			if rnd.IntN(3) == 0 {
				continue // the daemon does not drain this round
			}
			at := tick(40)
			for _, s := range p.pipe {
				if rnd.IntN(8) == 0 {
					at = tick(4) // a drain that straddles instants
				}
				e.PipeGet(at, s)
				if c.thin && rnd.IntN(10) == 0 {
					e.SampleLost(node, at, s, procs.LossThinned)
					continue
				}
				p.drained = append(p.drained, s)
			}
			p.pipe = p.pipe[:0]
		}
		for i := range ps {
			p := &ps[i]
			if len(p.drained) == 0 || rnd.IntN(4) == 0 {
				continue
			}
			node := i / perNode
			batch := slices.Clone(p.drained)
			p.drained = p.drained[:0]
			if c.unseen && rnd.IntN(6) == 0 {
				deliver(tick(60), batch)
				delivered = append(delivered, batch...)
				continue
			}
			e.BatchForwarded(node, tick(20), batch, 1)
			if c.tree {
				e.BatchArrived(nodes, tick(20), batch, 1)
				if rnd.IntN(4) == 0 {
					e.BatchArrived(nodes, tick(4), batch, 1) // a duplicate arrival
				}
				e.BatchForwarded(nodes, tick(20), batch, 2)
				if rnd.IntN(4) == 0 {
					e.BatchForwarded(nodes, tick(4), batch, 2) // a stale re-forward
				}
			}
			if rnd.IntN(2) == 0 {
				e.BatchForwarded(node, tick(8), batch, 1) // a retransmission
			}
			if c.lossLate && rnd.IntN(8) == 0 {
				lost := batch[rnd.IntN(len(batch))]
				e.SampleLost(node, tick(4), lost, procs.LossLink)
			}
			if c.dups && rnd.IntN(3) == 0 {
				batch = slices.Insert(batch, rnd.IntN(len(batch)+1), batch[rnd.IntN(len(batch))])
			}
			if c.dups && len(delivered) > 0 && rnd.IntN(3) == 0 {
				batch = append(batch, delivered[rnd.IntN(len(delivered))])
			}
			deliver(tick(60), batch)
			delivered = append(delivered, batch...)
			if c.lossLate && rnd.IntN(4) == 0 {
				gone := delivered[rnd.IntN(len(delivered))]
				e.SampleLost(node, tick(4), gone, procs.LossGiveUp)
			}
		}
	}
}

var scriptCases = []scriptCase{
	{name: "direct"},
	{name: "tree", tree: true},
	{name: "blocked", blocked: true},
	{name: "thinning", thin: true},
	{name: "duplicates", dups: true},
	{name: "late-losses", lossLate: true},
	{name: "unforwarded", unseen: true},
	{name: "all", tree: true, blocked: true, thin: true, dups: true, lossLate: true, unseen: true},
}

// checkMatchesReference compares every output of e with ref's: the stage
// summaries, every counter and sum, and each stage histogram's snapshot,
// all with ==.
func checkMatchesReference(t *testing.T, label string, e *Engine, ref *refEngine) {
	t.Helper()
	if got, want := e.Stages(), ref.Stages(); !slices.Equal(got, want) {
		t.Fatalf("%s: stages %+v, reference %+v", label, got, want)
	}
	type counters struct {
		Generated, Delivered, DupDelivered, DupLost uint64
		Lost                                        [4]uint64
		InFlight, WindowSlots                       int
		LatencySum, DupLatencySum, MaxCloseErr      float64
	}
	got := counters{e.Generated(), e.Delivered(), e.DupDelivered(), e.DupLost(),
		[4]uint64{e.Lost(0), e.Lost(1), e.Lost(2), e.Lost(3)}, e.InFlight(), e.WindowSlots(),
		e.LatencySumUS(), e.DupLatencySumUS(), e.MaxCloseErrUS()}
	want := counters{ref.generated, ref.delivered, ref.dupDelivered, ref.dupLost,
		ref.lost, len(ref.recs), ref.windowSlots(),
		ref.latencySumUS, ref.dupLatencySumUS, ref.maxCloseErrUS}
	if got != want {
		t.Fatalf("%s: counters %+v, reference %+v", label, got, want)
	}
	total := 0.0
	for _, v := range ref.sums {
		total += v
	}
	if got := e.StageSumUS(); got != total {
		t.Fatalf("%s: stage total %v, reference %v", label, got, total)
	}
	for st := Stage(0); st < NumStages; st++ {
		if got, want := e.Histogram(st).Snapshot(), ref.hist[st].Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s histogram %+v, reference %+v", label, st, got, want)
		}
	}
}

// TestEngineMatchesReference is the referee for the engine's one lookup
// per boundary, its memo, its in-place delivery and the per-message stage
// fold: over random scripts mixing direct and tree forwarding, blocked
// writers, thinning, duplicates delivered inside a batch and later,
// losses after close, and messages delivered
// with no forward seen, the engine fed one BatchDelivered per message,
// and the engine fed one SampleDelivered per sample, both equal the plain
// per-sample reference on every output.
func TestEngineMatchesReference(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for _, c := range scriptCases {
		for seed := uint64(0); seed < uint64(seeds); seed++ {
			ref := newRefEngine()
			runScript(seed, c, ref, func(t float64, batch []resources.Sample) {
				for _, s := range batch {
					ref.SampleDelivered(t, s, t-s.GenTime)
				}
			})
			batched := NewEngine()
			runScript(seed, c, batched, batched.BatchDelivered)
			perSample := NewEngine()
			runScript(seed, c, perSample, func(t float64, batch []resources.Sample) {
				for _, s := range batch {
					perSample.SampleDelivered(t, s, t-s.GenTime)
				}
			})
			if ref.delivered == 0 {
				t.Fatalf("%s seed %d: the script delivered nothing", c.name, seed)
			}
			checkMatchesReference(t, c.name+" batched", batched, ref)
			checkMatchesReference(t, c.name+" per sample", perSample, ref)
		}
	}
}
