package main

import (
	"fmt"
	"runtime"
	"time"

	"rocc/internal/core"
	"rocc/internal/des"
	"rocc/internal/forward"
	"rocc/internal/par"
	"rocc/internal/resources"
	"rocc/internal/rng"
)

// layerMetrics runs the traced run's extra phases (the par.Map replay on
// table4-regen, the observability probe and the layer microbenchmarks) and
// fills in every per-layer metric. Counts come from seed-determined runs
// (the warm-up op, or set-up's counting replay on table4-regen), so they
// repeat exactly for a seed whatever the host speed.
func layerMetrics(r *report, w workload, c runConfig, s setup, lp loop, tr *tracer) error {
	reps := 5
	if c.smoke {
		reps = 1
	}
	results := s.ref.results
	events, pending := s.ref.events, s.pending

	var nsPerEvent, newMS []float64
	if t4, ok := w.(*table4Workload); ok {
		// The op's simulations are opaque inside experiments.Run, so the
		// engine and assembly costs come from replaying its jobs.
		var err error
		if nsPerEvent, newMS, err = parMetrics(r, t4, w.opSeed(c.seed, 0), reps, tr); err != nil {
			return err
		}
	} else {
		for _, t := range lp.traced {
			nsPerEvent = append(nsPerEvent, float64(t.runD.Nanoseconds())/float64(t.events))
			newMS = append(newMS, float64(t.newD.Nanoseconds())/1e6)
		}
		// Only table4-regen runs par and the experiments layer; the
		// metrics are emitted as 0 from no samples elsewhere.
		r.set("par.efficiency", 0, "ratio", 0)
		r.set("experiments.nonsim_ms", 0, "ms", 0)
	}
	r.set("des.events_per_op", float64(events), "count", 1)
	r.set("des.ns_per_event", quantile(nsPerEvent, 0.5), "ns", len(nsPerEvent))
	r.set("des.pending_max", float64(pending), "count", 1)
	r.set("core.new_ms", quantile(newMS, 0.5), "ms", len(newMS))

	var allocs, bytesPer, gcs []float64
	for _, t := range lp.traced {
		ev := t.events
		if ev == 0 { // a table4 op: its jobs dispatch what the counting replay did
			ev = events
		}
		allocs = append(allocs, float64(t.mallocs)/float64(ev))
		bytesPer = append(bytesPer, float64(t.bytes)/float64(ev))
		gcs = append(gcs, float64(t.gcs))
	}
	r.set("core.allocs_per_event", quantile(allocs, 0.5), "count", len(allocs))
	r.set("core.bytes_per_event", quantile(bytesPer, 0.5), "B", len(bytesPer))
	r.set("core.gc_per_op", mean(gcs), "count", len(gcs))
	r.set("scenario.decode_us", quantile(microseconds(s.decodes), 0.5), "us", len(s.decodes))

	var sum core.Result
	var latWeighted float64
	for _, res := range results {
		sum.BlockedPuts += res.BlockedPuts
		sum.PipeBlockedWaitSec += res.PipeBlockedWaitSec
		sum.SamplesReceived += res.SamplesReceived
		sum.MessagesReceived += res.MessagesReceived
		sum.MessagesForwarded += res.MessagesForwarded
		sum.MessagesMerged += res.MessagesMerged
		sum.AdaptiveAdjustments += res.AdaptiveAdjustments
		sum.Retransmits += res.Retransmits
		latWeighted += res.MonitoringLatencySec * float64(res.SamplesReceived)
	}
	r.set("resources.blocked_puts", float64(sum.BlockedPuts), "count", len(results))
	r.set("resources.pipe_blocked_wait_s", sum.PipeBlockedWaitSec, "s", len(results))
	r.set("forward.samples_per_msg", ratio(sum.SamplesReceived, sum.MessagesReceived), "ratio", len(results))
	r.set("forward.abf_adjustments", float64(sum.AdaptiveAdjustments), "count", len(results))
	r.set("procs.msgs_forwarded", float64(sum.MessagesForwarded), "count", len(results))
	r.set("procs.msgs_received", float64(sum.MessagesReceived), "count", len(results))
	r.set("procs.samples_delivered", float64(sum.SamplesReceived), "count", len(results))
	r.set("procs.msgs_merged", float64(sum.MessagesMerged), "count", len(results))
	r.set("procs.latency_mean_s", latWeighted/float64(max(sum.SamplesReceived, 1)), "s", len(results))
	r.set("faults.retransmits", float64(sum.Retransmits), "count", len(results))
	r.set("faults.delivered_per_attempt", ratio(sum.MessagesReceived, sum.MessagesForwarded+sum.Retransmits), "ratio", len(results))

	if err := obsProbe(r, w, c, reps, tr); err != nil {
		return err
	}
	if err := microbenchmarks(r, w, c, pending, reps, tr); err != nil {
		return err
	}

	var traced []float64
	for _, t := range lp.traced {
		traced = append(traced, float64(t.scaled.Nanoseconds())/1e6)
	}
	plain := durationsMS(lp.plain)
	r.set("trace.overhead_pct", (quantile(traced, 0.5)/quantile(plain, 0.5)-1)*100, "%", len(traced)+len(plain))

	self := map[string]float64{}
	for name, d := range tr.selfTimes() {
		self[name] = float64(d.Nanoseconds()) / 1e6
	}
	r.record["self_ms_total"] = self
	r.record["traced_ops"] = len(lp.traced)
	r.record["trace_file"] = c.traceOut
	return tr.writeChrome(c.traceOut)
}

// parMetrics times table4-regen's op and, right after it, a par.Map replay
// of the op's jobs, reps times. par.efficiency is sum of job walls over
// workers x pool wall. experiments.nonsim_ms is the median of the paired
// differences op wall - pool wall: the confidence intervals and the table
// render, which cost microseconds, under millisecond noise, so it resolves
// only a change of several milliseconds. It returns the replays' engine
// ns per event and core.New ms per job.
func parMetrics(r *report, w *table4Workload, seed uint64, reps int, tr *tracer) (nsPerEvent, newMS []float64, err error) {
	jobs, err := w.jobs(seed)
	if err != nil {
		return nil, nil, err
	}
	var efficiency, nonsimMS []float64
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		if _, err := w.op(seed, opOpts{}); err != nil {
			return nil, nil, err
		}
		opD := time.Since(t0)
		rp, err := replay(jobs, false, tr)
		if err != nil {
			return nil, nil, err
		}
		efficiency = append(efficiency, rp.jobWall.Seconds()/(float64(rp.workers)*rp.mapWall.Seconds()))
		nsPerEvent = append(nsPerEvent, float64(rp.runD.Nanoseconds())/float64(rp.events))
		newMS = append(newMS, float64(rp.newD.Nanoseconds())/1e6/float64(len(jobs)))
		nonsimMS = append(nonsimMS, float64((opD-rp.mapWall).Nanoseconds())/1e6)
	}
	r.set("par.efficiency", quantile(efficiency, 0.5), "ratio", len(efficiency))
	r.set("experiments.nonsim_ms", quantile(nonsimMS, 0.5), "ms", len(nonsimMS))
	return nsPerEvent, newMS, nil
}

// replayed is one pass of an op's simulations through par.Map.
type replayed struct {
	results          []core.Result
	events           uint64
	pending          int           // calendar peak over the jobs (counting pass)
	runD, newD       time.Duration // summed over jobs
	jobWall, mapWall time.Duration
	workers          int
}

// replay runs the jobs through par.Map with one worker per CPU, timing
// each job and the pool. The counting pass also records each calendar's
// peak length through a des.Simulator observer.
func replay(jobs []core.Config, counting bool, tr *tracer) (replayed, error) {
	rp := replayed{workers: min(runtime.GOMAXPROCS(0), len(jobs))}
	pend := make([]int, len(jobs))
	walls := make([]time.Duration, len(jobs))
	root := tr.start("par.map", spanRef{})
	t0 := time.Now()
	outs, err := par.Map(rp.workers, jobs, func(i int, cfg core.Config) (output, error) {
		lane := tr.takeLane()
		defer tr.freeLane(lane)
		ref := root.ref()
		ref.lane = lane
		sp := tr.start("par.job", ref)
		defer sp.end()
		o := opOpts{tr: tr, parent: sp.ref()}
		if counting {
			o.pending = &pend[i]
		}
		start := time.Now()
		out, err := runSim(cfg, o)
		walls[i] = time.Since(start)
		return out, err
	})
	rp.mapWall = time.Since(t0)
	root.end()
	if err != nil {
		return rp, fmt.Errorf("replay: %w", err)
	}
	for i, out := range outs {
		rp.jobWall += walls[i]
		rp.results = append(rp.results, out.results...)
		rp.events += out.events
		rp.runD += out.runD
		rp.newD += out.newD
		rp.pending = max(rp.pending, pend[i])
	}
	return rp, nil
}

// obsProbe runs the workload's probe simulation plain and with
// Metrics+Provenance attached, alternating, and reports what observing it
// costs and what the exposition round trip takes.
func obsProbe(r *report, w workload, c runConfig, reps int, tr *tracer) error {
	cfg, err := w.probe(w.opSeed(c.seed, 0))
	if err != nil {
		return err
	}
	var plain, observed, render, parse []float64
	var last output
	closeErr := 0.0
	for k := 0; k < 2*reps; k++ {
		root := tr.start("obs.probe", spanRef{})
		o := opOpts{tr: tr, parent: root.ref(), observed: k%2 == 1}
		t0 := time.Now()
		out, err := runSim(cfg, o)
		d := float64(time.Since(t0).Nanoseconds()) / 1e6
		root.end()
		if err != nil {
			return fmt.Errorf("observability probe: %w", err)
		}
		if !o.observed {
			plain = append(plain, d)
			continue
		}
		if err := checkObserved(out); err != nil {
			return fmt.Errorf("observability probe: %w", err)
		}
		observed = append(observed, d)
		render = append(render, float64(out.renderD.Nanoseconds())/1e3)
		parse = append(parse, float64(out.parseD.Nanoseconds())/1e3)
		closeErr = max(closeErr, out.closeErr)
		last = out
	}
	r.set("obs.overhead_pct", (quantile(observed, 0.5)/quantile(plain, 0.5)-1)*100, "%", len(observed)+len(plain))
	r.set("prov.samples_folded", float64(last.folded), "count", 1)
	r.set("prov.close_err_us", closeErr, "us", len(observed))
	r.set("live.render_us", quantile(render, 0.5), "us", len(render))
	r.set("live.parse_us", quantile(parse, 0.5), "us", len(parse))
	r.set("live.expo_bytes", float64(len(last.text)), "B", 1)
	return nil
}

// microbenchmarks times the public entry points of the calendar, the
// resources and the forwarding strategies at the workload's parameters:
// the calendar NewCalendarFor picks for the measured peak length, the
// model's quantum, network discipline and pipe capacity.
func microbenchmarks(r *report, w workload, c runConfig, pending, reps int, tr *tracer) error {
	probe, err := w.probe(1)
	if err != nil {
		return err
	}
	m, err := core.New(probe)
	if err != nil {
		return err
	}
	cfg := m.Cfg
	n := 200000
	if c.smoke {
		n = 2000
	}
	benches := []struct {
		metric, span string
		fn           func(n int) float64
	}{
		{"des.hold_ns", "des.hold", func(n int) float64 { return holdNS(max(pending, 1), n) }},
		{"resources.cpu_quantum_ns", "resources.cpu", func(n int) float64 { return cpuQuantumNS(cfg.Quantum, n) }},
		{"resources.net_transfer_ns", "resources.network", func(n int) float64 { return netTransferNS(m.Net.Contended(), n) }},
		{"resources.pipe_put_get_ns", "resources.pipe", func(n int) float64 { return pipePutGetNS(cfg.PipeCapacity, n) }},
		{"forward.decide_ns.cf", "forward.decide.cf", func(n int) float64 { return decideNS(forward.NewCF(), cfg.PipeCapacity, 10*n) }},
		{"forward.decide_ns.bf", "forward.decide.bf", func(n int) float64 { return decideNS(forward.NewFixedBF(128), cfg.PipeCapacity, 10*n) }},
		{"forward.decide_ns.abf", "forward.decide.abf", func(n int) float64 {
			s := forward.NewAdaptiveBF(forward.ControllerConfig{})
			s.SeedFromCost(cfg.Cost)
			return decideNS(s, cfg.PipeCapacity, 10*n)
		}},
	}
	for _, b := range benches {
		var vals []float64
		for k := 0; k < reps; k++ {
			sp := tr.start(b.span, spanRef{})
			vals = append(vals, b.fn(n))
			sp.end()
		}
		r.set(b.metric, quantile(vals, 0.5), "ns", len(vals))
	}
	return nil
}

func nsPer(t0 time.Time, n int) float64 { return float64(time.Since(t0).Nanoseconds()) / float64(n) }

// holdNS is the classic hold model: the calendar holds `pending` events and
// every step pops the earliest and pushes one with an exponential delay.
func holdNS(pending, n int) float64 {
	sim := des.NewWithCalendar(des.NewCalendarFor(des.CalendarAuto, des.WorkloadHints{PendingEvents: pending}))
	r := rng.New(1)
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = r.Exp(float64(pending))
	}
	k := 0
	var fire func()
	fire = func() {
		sim.Schedule(delays[k%len(delays)], fire)
		k++
	}
	for i := 0; i < pending; i++ {
		fire()
	}
	for i := 0; i < n; i++ { // reach the steady state before timing
		sim.Step()
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sim.Step()
	}
	return nsPer(t0, n)
}

// cpuQuantumNS is the cost of one round-robin quantum: four requests share
// one core until n quanta have run.
func cpuQuantumNS(quantum float64, n int) float64 {
	sim := des.New()
	cpu := resources.NewCPU(sim, 1, quantum)
	for i := 0; i < 4; i++ {
		cpu.Submit("app", float64(n/4)*quantum, nil)
	}
	t0 := time.Now()
	sim.RunAll()
	return nsPer(t0, int(sim.Dispatched))
}

// netTransferNS is the cost of one transfer with eight closed-loop senders.
func netTransferNS(contended bool, n int) float64 {
	sim := des.New()
	net := resources.NewNetwork(sim, contended)
	left := n
	var next func()
	next = func() {
		if left > 0 {
			left--
			net.Submit("pd", 50, next)
		}
	}
	t0 := time.Now()
	for i := 0; i < 8; i++ {
		next()
	}
	sim.RunAll()
	return nsPer(t0, n)
}

// pipePutGetNS is the cost of one put and one get on a half-full pipe.
func pipePutGetNS(capacity, n int) float64 {
	p := resources.NewPipe(capacity)
	var s resources.Sample
	for i := 0; i < capacity/2; i++ {
		p.Put(s, nil)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s.Seq = i
		p.Put(s, nil)
		p.Get()
	}
	return nsPer(t0, n)
}

// decideSink keeps the compiler from dropping the timed calls.
var decideSink int

// decideNS is the cost of one forwarding decision over a cycling buffer
// occupancy.
func decideNS(s forward.Strategy, capacity, n int) float64 {
	acc := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a, k := s.Decide(float64(i), i%capacity, capacity)
		acc += int(a) + k
	}
	ns := nsPer(t0, n)
	decideSink += acc
	return ns
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func microseconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}
