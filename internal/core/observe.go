package core

import (
	"errors"
	"fmt"

	"rocc/internal/obs"
	"rocc/internal/obs/prov"
	"rocc/internal/resources"
	"rocc/internal/trace"
)

// ObsOptions selects which halves of the observability layer to attach.
type ObsOptions struct {
	// Trace records occupancy spans (every CPU and the network, all
	// nodes) and sample-lifecycle events into a TraceSink.
	Trace bool
	// Metrics attaches the counter/histogram registry and the periodic
	// resource samplers.
	Metrics bool
	// Provenance attaches the per-sample latency-decomposition engine
	// (internal/obs/prov): per-stage dwell histograms surfaced as
	// Result.LatencyStages and rocc_latency_stage_* metric families.
	Provenance bool
	// SampleIntervalUS is the sampler period; 0 defaults to 1% of the
	// configured duration (100 points per run).
	SampleIntervalUS float64
}

// EnableObservability wires an obs.Collector through the assembled model:
// occupancy hooks on every CPU and the network, lifecycle observers on
// every pipe, application process, daemon, the main process, and (when a
// fault plan is active) the uplinks, plus — with Metrics — the periodic
// utilization/queue/pipe-depth samplers, whose ticks also refresh the
// events counter from the simulator's dispatch count. No engine observer
// is attached: the dispatch loop runs as in an unobserved run.
//
// Call after New and before Start/Run, at most once. The trace covers all
// nodes, so per-class totals match the run's Result accounting;
// NodeTraceRecords narrows it to the paper's single-node tracer.
//
// The samplers only read resource state; they never run model code or
// draw random numbers, so an observed run produces the same Result as an
// unobserved one.
func (m *Model) EnableObservability(o ObsOptions) (*obs.Collector, error) {
	if m.obsC != nil {
		return nil, errors.New("core: observability already enabled")
	}
	if !o.Trace && !o.Metrics && !o.Provenance {
		return nil, errors.New("core: enable at least one of Trace, Metrics, Provenance")
	}
	var metrics *obs.Metrics
	if o.Metrics {
		metrics = obs.NewMetrics(m.Main.Latencies)
	}
	c := obs.NewCollector(o.Trace, metrics)
	if o.Provenance {
		m.prov = prov.NewEngine()
		c.Flow = m.prov
	}
	m.obsC = c

	if c.Sink != nil {
		hookCPU := func(unit int, cpu *resources.CPU) {
			cpu.OnOccupancy = func(owner string, start, length float64) {
				c.Occupancy(obs.OccCPU, unit, owner, start, length)
			}
		}
		for i, cpu := range m.NodeCPUs {
			hookCPU(i, cpu)
		}
		if m.dedicatedHost() {
			hookCPU(len(m.NodeCPUs), m.HostCPU)
		}
		m.Net.OnOccupancy = func(owner string, start, length float64) {
			c.Occupancy(obs.OccNet, 0, owner, start, length)
		}
	}

	for _, d := range m.Daemons {
		for _, p := range d.Pipes {
			p.SetObserver(m.obsPipeSeq, c)
			m.obsPipeSeq++
		}
		d.Obs = c
	}
	for _, a := range m.Apps {
		a.Obs = c
	}
	m.Main.Obs = c
	if m.Inj != nil {
		m.Inj.SetObserver(c)
	}

	if c.Metrics != nil {
		interval := o.SampleIntervalUS
		if interval <= 0 {
			interval = m.Cfg.Duration / 100
		}
		sampler := obs.NewSampler(m.Sim, interval)
		// Preallocate every probe series for the whole run — the tick
		// count follows from the run geometry — so steady-state metric
		// recording appends into flat storage without growth (see the obs
		// allocs tests).
		sampler.SetExpectedTicks(int((m.Cfg.Warmup+m.Cfg.Duration)/interval) + 2)
		sampler.CountEvents(c.Metrics)
		m.addProbes(c, sampler, interval)
		sampler.Start()
	}
	return c, nil
}

// NodeTraceRecords returns the Figure 29 view of a traced run, in which
// the AIX tracer ran on one application node: that node's CPU, the shared
// network, and for node 0 the dedicated host workstation's CPU, whose
// tracer wrote Figure 29's second file. CPU records are per scheduler
// dispatch (a request longer than the quantum appears as several
// records), exactly as a kernel tracer would see them. Like the full
// trace, the view holds only the slices that complete after warmup, so
// its per-class totals match the Result. It needs EnableObservability
// with Trace.
func (m *Model) NodeTraceRecords(node int) ([]trace.Record, error) {
	if m.obsC == nil || m.obsC.Sink == nil {
		return nil, errors.New("core: node trace needs EnableObservability with Trace")
	}
	if node < 0 || node >= len(m.NodeCPUs) {
		return nil, errors.New("core: trace node out of range")
	}
	units := []int{node}
	if node == 0 && m.dedicatedHost() {
		units = append(units, len(m.NodeCPUs))
	}
	return m.obsC.Sink.UnitTraceRecords(units...), nil
}

// Collector returns the attached collector, nil when observability is
// not enabled.
func (m *Model) Collector() *obs.Collector { return m.obsC }

// Provenance returns the attached latency-decomposition engine, nil when
// ObsOptions.Provenance was not enabled.
func (m *Model) Provenance() *prov.Engine { return m.prov }

// dedicatedHost reports whether HostCPU is a CPU of its own rather than
// an alias of NodeCPUs[0] (or the SMP pool).
func (m *Model) dedicatedHost() bool {
	return m.Cfg.DedicatedHost && m.Cfg.Arch != SMP
}

// addProbes registers the standard resource samplers: windowed busy
// fraction and ready-queue length per CPU, the same for the network,
// main's inbox, and aggregate pipe depth and blocked-writer counts.
// Utilization probes report the busy time accumulated in each sampling
// window as a percent of the window (an SMP pool can exceed 100: it has
// Nodes cores). The first window after warmup reads low because
// accounting resets mid-window; every later window is exact.
func (m *Model) addProbes(c *obs.Collector, sampler *obs.Sampler, interval float64) {
	utilProbe := func(name string, busyTotal func() float64) {
		prev := 0.0
		sampler.Probe(c.Metrics, name, func(t float64) float64 {
			cur := busyTotal()
			d := cur - prev
			prev = cur
			if d < 0 {
				d = 0 // accounting was reset (warmup boundary) this window
			}
			return d / interval * 100
		})
	}
	queueProbe := func(name string, read func() int) {
		sampler.Probe(c.Metrics, name, func(t float64) float64 { return float64(read()) })
	}
	for i, cpu := range m.NodeCPUs {
		cpu := cpu
		utilProbe(fmt.Sprintf("cpu%d.util_pct", i), cpu.BusyTotal)
		queueProbe(fmt.Sprintf("cpu%d.ready", i), func() int { return cpu.QueueLen() + cpu.Running() })
	}
	if m.dedicatedHost() {
		utilProbe("host.util_pct", m.HostCPU.BusyTotal)
		queueProbe("host.ready", func() int { return m.HostCPU.QueueLen() + m.HostCPU.Running() })
	}
	queueProbe("main.inbox", func() int { return m.Main.Inbox })
	utilProbe("net.util_pct", m.Net.BusyTotal)
	queueProbe("net.queue", m.Net.QueueLen)
	queueProbe("pipes.depth", func() int {
		n := 0
		for _, d := range m.Daemons {
			for _, p := range d.Pipes {
				n += p.Len()
			}
		}
		return n
	})
	queueProbe("pipes.blocked_writers", func() int {
		n := 0
		for _, d := range m.Daemons {
			for _, p := range d.Pipes {
				n += p.Blocked()
			}
		}
		return n
	})
}
