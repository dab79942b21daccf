package core

import (
	"rocc/internal/des"
	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/obs"
	"rocc/internal/obs/prov"
	"rocc/internal/procs"
	"rocc/internal/resources"
	"rocc/internal/rng"
)

// Model is an assembled ROCC simulation ready to run. All components are
// exported so tests and experiments can inspect internal state.
type Model struct {
	Cfg Config
	Sim *des.Simulator

	// NodeCPUs has one entry per node for NOW/MPP; for SMP it holds the
	// single shared multi-core CPU.
	NodeCPUs []*resources.CPU
	// HostCPU is where the main Paradyn process runs. It may alias
	// NodeCPUs[0] (shared) or be a dedicated host workstation CPU.
	HostCPU *resources.CPU
	// Net is the interconnect (shared network, bus, or contention-free).
	Net *resources.Network

	Apps    []*procs.AppProcess
	Daemons []*procs.PdDaemon
	Main    *procs.MainProcess
	Sources []*procs.OpenSource
	Barrier *procs.Barrier

	// Inj is the fault injector, non-nil only when Cfg.Faults is active.
	Inj *faults.Injector

	// Msgs is the model's message pool: daemons fill messages from it,
	// and the main process, crashes and fault-injecting uplinks release
	// them back to it.
	Msgs *forward.MessagePool

	topo        forward.Topology
	nodeDaemons [][]*procs.PdDaemon // daemons indexed by node (NOW/MPP)
	nodeProcs   []int               // current application-process count per node
	master      *rng.Stream         // for mid-run spawns
	spawnSeq    int

	// st holds the records New built; release gives it back to storePool.
	st *store

	dists dists // what the processes sample, prepared once

	// PhaseFlips counts workload phase transitions (PhasePeriod option).
	PhaseFlips int
	inAltPhase bool

	warmupCarryover int

	// obsC is the attached observability collector (EnableObservability);
	// obsPipeSeq hands out pipe IDs for its lifecycle events; prov is the
	// per-sample latency-decomposition engine (ObsOptions.Provenance).
	obsC       *obs.Collector
	obsPipeSeq int
	prov       *prov.Engine
}

// Substream identifiers for reproducible per-entity random streams.
const (
	streamApp = iota + 1
	streamPd
	streamMain
	streamPvm
	streamOther
)

func streamID(kind, node, idx int) uint64 {
	return uint64(kind)<<40 | uint64(node)<<20 | uint64(idx)
}

// New assembles a model from a configuration (validated and normalized
// first). Every record it builds lives in a store from storePool.
func New(cfg Config) (*Model, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	cal := des.NewCalendarFor(cfg.Calendar, des.WorkloadHints{PendingEvents: cfg.expectedPending()})
	m := &Model{Cfg: cfg, Sim: des.NewWithCalendar(cal), Msgs: &forward.MessagePool{},
		dists: prepareDists(cfg), st: storePool.Get().(*store)}
	m.build()
	if err := m.wireFaults(); err != nil {
		return nil, err
	}
	return m, nil
}

// initPipe applies the model-wide pipe settings: the simulation clock for
// blocked-writer wait accounting and, on an observed run, the observer.
func (m *Model) initPipe(p *resources.Pipe) *resources.Pipe {
	p.SetClock(m.Sim.Now)
	if m.obsC != nil { // pipes spawned after EnableObservability
		p.SetObserver(m.obsPipeSeq, m.obsC)
		m.obsPipeSeq++
	}
	return p
}

// wireFaults overlays the fault plan on the assembled model: every
// daemon's uplink is routed through a fault-injecting (and, if enabled,
// retransmitting) Link, the crash and pipe-squeeze schedules are armed,
// and degradation controllers are attached. A nil or inactive plan is a
// no-op — the model stays byte-identical to the fault-free baseline.
// Pipes created later by process forking are not covered by the squeeze
// schedule (it is fixed at build time).
func (m *Model) wireFaults() error {
	if !m.Cfg.Faults.Active() {
		return nil
	}
	inj, err := faults.NewInjector(m.Sim, *m.Cfg.Faults)
	if err != nil {
		return err
	}
	m.Inj = inj
	perNode := make(map[int]int)
	for _, d := range m.Daemons {
		node := d.Node
		idx := perNode[node]
		perNode[node]++
		dst := func(msg *forward.Message) bool {
			parent, toMain := m.topo.Next(node)
			if toMain {
				m.Main.Receive(msg)
				return true
			}
			return m.nodeDaemons[parent][0].Accept(msg)
		}
		link := inj.NewLink(node, idx, m.Net, m.dists.cost, m.Msgs, dst)
		d.Deliver = link.Send
		inj.AttachDegrader(d, link)
	}
	inj.ScheduleCrashes(m.Daemons)
	var pipes []*resources.Pipe
	for _, d := range m.Daemons {
		pipes = append(pipes, d.Pipes...)
	}
	inj.SchedulePipeSqueezes(pipes)
	return nil
}

// build assembles the model's processes and resources into m.st. NOW and
// MPP have one single-core CPU per node, Pds daemons per node and
// AppProcs application processes per node; SMP is one machine whose
// Nodes cores all processes share, with Pds daemons and AppProcs
// application processes in total, forwarding directly to main over the
// shared bus.
func (m *Model) build() {
	cfg, w, st := m.Cfg, m.dists.work, m.st
	machines, cores := cfg.Nodes, 1
	if cfg.Arch == SMP {
		machines, cores = 1, cfg.Nodes
		m.topo = forward.DirectTopology{}
	} else {
		m.topo = forward.NewTopology(cfg.Forwarding, cfg.Nodes)
	}
	cpus := machines
	if m.dedicatedHost() {
		cpus++
	}
	sources := 0
	if cfg.Background {
		sources = 2 * machines
	}
	st.size(machines, cpus, machines*cfg.Pds, machines*cfg.AppProcs, sources)

	master := &st.streams[0]
	master.Seed(cfg.Seed)
	m.master = master

	m.Net = &st.net
	m.Net.Init(m.Sim, cfg.contended())
	m.NodeCPUs = st.cpuPtrs
	for i := range m.NodeCPUs {
		st.cpus[i].Init(m.Sim, cores, cfg.Quantum)
		m.NodeCPUs[i] = &st.cpus[i]
	}
	m.HostCPU = m.NodeCPUs[0]
	if m.dedicatedHost() {
		m.HostCPU = &st.cpus[machines]
		m.HostCPU.Init(m.Sim, 1, cfg.Quantum)
	}
	m.Main = &st.main
	*m.Main = procs.MainProcess{
		Sim: m.Sim, CPU: m.HostCPU,
		R:         st.stream(master, streamID(streamMain, 0, 0)),
		CPUDist:   w.MainCPU,
		Msgs:      m.Msgs,
		Latencies: procs.NewLatencyHistogram(),
	}

	if cfg.BarrierPeriod > 0 {
		m.Barrier = &st.barrier
		*m.Barrier = procs.Barrier{Participants: machines * cfg.AppProcs}
	}

	// Daemons first so pipes can be attached as apps are created. Each
	// daemon's pipes sit together in st.pipePtrs, in the order its
	// applications are built: d.Pipes starts as an empty window onto them
	// whose capacity is exactly the daemon's share of the node's
	// applications (round-robin), so appending a spawned child's pipe
	// moves d.Pipes to the heap instead of overwriting a neighbour's.
	m.Daemons = st.daemonPtrs
	m.nodeDaemons = st.nodeDaemons
	pipes := 0
	for node := 0; node < machines; node++ {
		lo := node * cfg.Pds
		m.nodeDaemons[node] = m.Daemons[lo : lo+cfg.Pds : lo+cfg.Pds]
		for k := 0; k < cfg.Pds; k++ {
			n := (cfg.AppProcs - k + cfg.Pds - 1) / cfg.Pds
			d := &st.daemons[lo+k]
			*d = procs.PdDaemon{
				Sim: m.Sim, CPU: m.NodeCPUs[node], Net: m.Net,
				R:            st.stream(master, streamID(streamPd, node, k)),
				Pipes:        st.pipePtrs[pipes : pipes : pipes+n],
				Strategy:     cfg.Strategy.Clone(),
				Cost:         m.dists.cost,
				Node:         node,
				FlushTimeout: cfg.FlushTimeout,
				Msgs:         m.Msgs,
			}
			pipes += n
			m.wireDelivery(d)
			m.Daemons[lo+k] = d
		}
	}

	m.Apps = st.appPtrs
	for node := 0; node < machines; node++ {
		for j := 0; j < cfg.AppProcs; j++ {
			i := node*cfg.AppProcs + j
			pipe := &st.pipes[i]
			pipe.Init(cfg.PipeCapacity)
			m.initPipe(pipe)
			// Round-robin pipes over the node's daemons.
			d := m.nodeDaemons[node][j%cfg.Pds]
			d.Pipes = append(d.Pipes, pipe)
			app := &st.apps[i]
			*app = procs.AppProcess{
				Sim: m.Sim, CPU: m.NodeCPUs[node], Net: m.Net, Pipe: pipe,
				R:              st.stream(master, streamID(streamApp, node, j)),
				CPUDist:        w.AppCPU,
				NetDist:        w.AppNet,
				SamplingPeriod: cfg.SamplingPeriod,
				Barrier:        m.Barrier,
				BarrierPeriod:  cfg.BarrierPeriod,
				Node:           node, ID: j,
			}
			m.applyDetailed(app, d)
			m.Apps[i] = app
		}
	}
	m.nodeProcs = st.nodeProcs
	for i := range m.nodeProcs {
		m.nodeProcs[i] = cfg.AppProcs
	}

	if cfg.Background {
		m.addBackground()
	}
}

// wireDelivery routes a daemon's transmitted messages either to the main
// process or to the parent node's (first) daemon per the topology. Wiring
// is deferred via closure so it works while daemons are still being built.
func (m *Model) wireDelivery(d *procs.PdDaemon) {
	node := d.Node
	d.Deliver = func(msg *forward.Message) {
		parent, toMain := m.topo.Next(node)
		if toMain {
			m.Main.Receive(msg)
			return
		}
		m.nodeDaemons[parent][0].Receive(msg)
	}
}

// applyDetailed attaches the event-tracing and Figure 6 detailed-model
// behaviors to an application process.
func (m *Model) applyDetailed(app *procs.AppProcess, d *procs.PdDaemon) {
	cfg := m.Cfg
	app.EventTrace = cfg.EventTrace
	if cfg.Detailed.IOProb > 0 {
		app.IOProb = cfg.Detailed.IOProb
		app.IOBlock = m.dists.ioBlock
	}
	if cfg.Detailed.SpawnPeriod > 0 {
		app.SpawnPeriod = cfg.Detailed.SpawnPeriod
		app.OnSpawn = func(parent *procs.AppProcess) { m.spawnChild(parent, d) }
	}
}

// spawnChild implements the Fork transition: a running process creates a
// new instrumented application process on its node, whose samples flow
// through a fresh pipe registered with the node's daemon. Children do not
// fork further; MaxProcsPerNode caps growth.
func (m *Model) spawnChild(parent *procs.AppProcess, d *procs.PdDaemon) {
	node := parent.Node
	if node >= len(m.nodeProcs) || m.nodeProcs[node] >= m.Cfg.Detailed.MaxProcsPerNode {
		return
	}
	m.nodeProcs[node]++
	m.spawnSeq++
	pipe := m.initPipe(resources.NewPipe(m.Cfg.PipeCapacity))
	d.Pipes = append(d.Pipes, pipe)
	pipe.SetOnData(d.Wake)
	child := &procs.AppProcess{
		Sim: m.Sim, CPU: parent.CPU, Net: parent.Net, Pipe: pipe,
		R:              m.master.Derive(streamID(streamApp, node, 1000+m.spawnSeq)),
		CPUDist:        parent.CPUDist,
		NetDist:        parent.NetDist,
		SamplingPeriod: parent.SamplingPeriod,
		EventTrace:     parent.EventTrace,
		IOProb:         parent.IOProb,
		IOBlock:        parent.IOBlock,
		Node:           node, ID: 1000 + m.spawnSeq,
	}
	if m.obsC != nil {
		child.Obs = m.obsC
	}
	m.Apps = append(m.Apps, child)
	child.Start()
}

// addBackground attaches the PVM daemon and other user/system process
// request streams of Table 2: one of each per node (one pair total for
// SMP, which is a single machine).
func (m *Model) addBackground() {
	w, st := m.dists.work, m.st
	m.Sources = st.sourcePtrs
	for node, cpu := range m.NodeCPUs {
		pvm, other := &st.sources[2*node], &st.sources[2*node+1]
		*pvm = procs.OpenSource{
			Sim: m.Sim, CPU: cpu, Net: m.Net,
			R:       st.stream(m.master, streamID(streamPvm, node, 0)),
			Owner:   procs.OwnerPvm,
			CPUDist: w.PvmCPU, NetDist: w.PvmNet,
			Chained:         true,
			CPUInterarrival: w.PvmInterarrival,
		}
		*other = procs.OpenSource{
			Sim: m.Sim, CPU: cpu, Net: m.Net,
			R:       st.stream(m.master, streamID(streamOther, node, 0)),
			Owner:   procs.OwnerOther,
			CPUDist: w.OtherCPU, NetDist: w.OtherNet,
			CPUInterarrival: w.OtherCPUInterarrival,
			NetInterarrival: w.OtherNetInterarrival,
		}
		m.Sources[2*node], m.Sources[2*node+1] = pvm, other
	}
}

// dists holds Cfg's sampled distributions that several processes share,
// or that flipPhase installs mid-run, each prepared once (rng.Prepare) so
// a lognormal draw skips re-deriving its normal parameters. Draws are
// bit-identical to sampling Cfg's distributions directly. The prepared
// values never go back into Cfg: scenario.SpecOf type-switches on the
// plain types.
type dists struct {
	work, phase Workload
	cost        forward.CostModel
	ioBlock     rng.Dist
}

func prepareDists(cfg Config) dists {
	d := dists{
		work:    cfg.Workload.prepared(),
		cost:    cfg.Cost,
		ioBlock: rng.Prepare(cfg.Detailed.IOBlock),
	}
	if cfg.PhaseWorkload != nil {
		d.phase = cfg.PhaseWorkload.prepared()
	}
	for _, c := range []*rng.Dist{&d.cost.PerMsgCPU, &d.cost.PerMsgNet, &d.cost.Merge} {
		*c = rng.Prepare(*c)
	}
	return d
}

// prepared returns w with every distribution passed through rng.Prepare.
func (w Workload) prepared() Workload {
	for _, d := range []*rng.Dist{
		&w.AppCPU, &w.AppNet,
		&w.PvmCPU, &w.PvmNet, &w.PvmInterarrival,
		&w.OtherCPU, &w.OtherNet, &w.OtherCPUInterarrival, &w.OtherNetInterarrival,
		&w.MainCPU,
	} {
		*d = rng.Prepare(*d)
	}
	return w
}

// Start launches every process in the model.
func (m *Model) Start() {
	for _, d := range m.Daemons {
		d.Start()
	}
	for _, a := range m.Apps {
		a.Start()
	}
	for _, s := range m.Sources {
		s.Start()
	}
	if m.Cfg.PhasePeriod > 0 {
		m.Sim.Schedule(m.Cfg.PhasePeriod, m.flipPhase)
	}
}

// flipPhase alternates every application process between the base and the
// phase workload; processes pick up the new distributions at their next
// burst.
func (m *Model) flipPhase() {
	m.inAltPhase = !m.inAltPhase
	w := m.dists.work
	if m.inAltPhase {
		w = m.dists.phase
	}
	for _, a := range m.Apps {
		a.CPUDist = w.AppCPU
		a.NetDist = w.AppNet
	}
	m.PhaseFlips++
	m.Sim.Schedule(m.Cfg.PhasePeriod, m.flipPhase)
}

// Run starts the model, simulates for the configured duration (after any
// warmup period, whose activity is discarded), and returns the collected
// metrics.
func (m *Model) Run() Result {
	m.Start()
	if m.Cfg.Warmup > 0 {
		m.Sim.Run(m.Cfg.Warmup)
		m.resetAccounting()
	}
	m.Sim.Run(m.Cfg.Warmup + m.Cfg.Duration)
	if m.obsC != nil && m.obsC.Metrics != nil {
		m.obsC.Metrics.SyncEvents()
	}
	return m.collect()
}

// Simulate assembles a model from cfg, runs it, and returns its Result,
// like New followed by Run, for callers that neither keep nor observe the
// model. Afterwards it gives the run's storage back to process-wide pools,
// from which the next model on that worker draws: the store of per-node
// records (CPUs, pipes, daemons, application and background processes and
// their random streams), the queue rings, the calendar's arrays and the
// events. What the run allocates as it goes stays garbage: children
// spawned mid-run and the free-list records of daemon jobs, CPU slots,
// network requests and messages. Only storage is reused: the Result is
// the same bytes New followed by Run gives.
func Simulate(cfg Config) (Result, error) {
	m, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	res := m.Run()
	m.release()
	return res, nil
}

// release gives the model's queue rings, calendar arrays and events back
// to the pools, visiting each CPU once (HostCPU may alias NodeCPUs[0]),
// then clears the store and gives it back too. The model must not be run
// or inspected afterwards.
func (m *Model) release() {
	for _, cpu := range m.NodeCPUs {
		cpu.Release()
	}
	if m.HostCPU != m.NodeCPUs[0] {
		m.HostCPU.Release()
	}
	m.Net.Release()
	for _, d := range m.Daemons {
		for _, p := range d.Pipes {
			p.Release()
		}
		d.Release()
	}
	m.Sim.Release()
	m.st.clear()
	storePool.Put(m.st)
	m.st = nil
}

// resetAccounting discards warmup-period metrics across the model. Samples
// generated during warmup that are still buffered or in flight will be
// received during the measured window; their count is recorded as the
// warmup carryover so sample accounting stays exact.
func (m *Model) resetAccounting() {
	carry := 0
	for _, d := range m.Daemons {
		for _, p := range d.Pipes {
			carry += p.Len() + p.Blocked()
		}
		carry += d.SamplesCollected
	}
	carry -= m.Main.SamplesReceived
	if carry < 0 {
		carry = 0
	}
	m.warmupCarryover = carry
	for _, cpu := range m.NodeCPUs {
		cpu.ResetAccounting()
	}
	if m.Cfg.DedicatedHost && m.Cfg.Arch != SMP {
		m.HostCPU.ResetAccounting()
	}
	m.Net.ResetAccounting()
	m.Main.ResetAccounting()
	for _, d := range m.Daemons {
		d.ResetAccounting()
		for _, p := range d.Pipes {
			p.ResetAccounting()
		}
	}
	for _, a := range m.Apps {
		a.ResetAccounting()
	}
	if m.Barrier != nil {
		m.Barrier.Releases = 0
	}
	if m.Inj != nil {
		m.Inj.ResetAccounting()
	}
	if m.obsC != nil {
		m.obsC.ResetAccounting()
	}
}
