package testbed

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rocc/internal/forward"
	"rocc/internal/nas"
)

// AppStats summarizes the instrumented application's run.
type AppStats struct {
	Steps            int64
	Ops              int64
	SamplesGenerated int
	// BlockedSec is time the application spent blocked writing samples
	// into a full pipe (the §4.3.3 effect, real this time).
	BlockedSec float64
	RunSec     float64
}

// runApp executes the kernel for duration, generating one sample per
// sampling period inline with the computation (Paradyn instruments the
// application code itself, so sample writes happen on the application's
// own thread and block it when the pipe is full).
func runApp(kernel nas.Kernel, pipe chan<- Sample, samplingPeriod, duration time.Duration) AppStats {
	var st AppStats
	start := time.Now()
	nextSample := start.Add(samplingPeriod)
	var seq uint64
	for {
		now := time.Now()
		if now.Sub(start) >= duration {
			break
		}
		kernel.Step()
		st.Steps++
		if samplingPeriod > 0 {
			for now = time.Now(); !now.Before(nextSample); nextSample = nextSample.Add(samplingPeriod) {
				s := Sample{GenTime: now, Seq: seq}
				seq++
				st.SamplesGenerated++
				blockStart := time.Now()
				pipe <- s // blocks when the pipe is full
				st.BlockedSec += time.Since(blockStart).Seconds()
			}
		}
	}
	st.Ops = kernel.Ops()
	st.RunSec = time.Since(start).Seconds()
	return st
}

// Config describes one measurement experiment: the Figure 29 setup, with
// one instrumented application and one daemon per node, all forwarding to
// a single collector — directly or through a binary tree of relays
// (Figure 4). A one-node run is a cell of the Figure 30 / Figure 31
// designs.
type Config struct {
	// Nodes is the number of application+daemon pairs; zero means one.
	Nodes int

	// Kernel selects the application: "bt" (pvmbt) or "is" (pvmis).
	Kernel string
	// KernelSize scales the kernel (BT grid edge / IS key count); zero
	// picks a default sized so one step takes ~a millisecond.
	KernelSize int

	// Strategy is the daemons' forwarding policy: nil or forward.NewCF,
	// or forward.NewFixedBF. Adaptive strategies are rejected.
	Strategy forward.Strategy

	SamplingPeriod time.Duration
	Duration       time.Duration
	// PipeCapacity is each node's pipe size in samples; zero means 256.
	PipeCapacity int
	// Seed seeds node 0's kernel; node i's kernel gets Seed+i.
	Seed uint64

	// Tree routes node i's daemon through a relay chain following the
	// binary-tree parent relation (node 0's traffic goes straight to the
	// collector).
	Tree bool
}

// NodeResult is one node's application and daemon statistics.
type NodeResult struct {
	App    AppStats
	Daemon DaemonStats
}

// Result is the outcome of a measurement experiment.
type Result struct {
	Nodes     []NodeResult
	Relays    []RelayStats
	Collector CollectorStats

	// MeanDaemonBusySec is the per-node average daemon overhead — the
	// "average direct overhead" global metric of §2.1.
	MeanDaemonBusySec float64
	// TotalRelayBusySec is the extra merge work of tree forwarding.
	TotalRelayBusySec float64

	// NormalizedPdPct is the nodes' total daemon busy time normalized by
	// their total observed CPU occupancy (daemon + application), the
	// Figure 31 normalization.
	NormalizedPdPct float64
	// NormalizedMainPct is collector busy time normalized the same way.
	NormalizedMainPct float64
}

// NewKernel builds the named NAS kernel.
func NewKernel(name string, size int, seed uint64) (nas.Kernel, error) {
	switch name {
	case "bt":
		if size <= 0 {
			size = 12
		}
		return nas.NewBT(size, seed)
	case "is":
		if size <= 0 {
			size = 1 << 15
		}
		return nas.NewIS(size, 1<<11, seed)
	}
	return nil, fmt.Errorf("testbed: unknown kernel %q", name)
}

// drainWait bounds how long Run waits, once every daemon has flushed, for
// messages still in flight to reach the collector.
const drainWait = 3 * time.Second

// Run executes one measurement experiment end to end: collector, relays,
// daemons and instrumented applications on real goroutines and sockets.
func Run(cfg Config) (Result, error) {
	switch {
	case cfg.Nodes < 0:
		return Result{}, errors.New("testbed: Nodes must not be negative")
	case cfg.Duration <= 0:
		return Result{}, errors.New("testbed: Duration must be positive")
	case cfg.SamplingPeriod <= 0:
		return Result{}, errors.New("testbed: SamplingPeriod must be positive")
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 1
	}
	if cfg.PipeCapacity <= 0 {
		cfg.PipeCapacity = 256
	}
	if _, err := fixedBatch(cfg.Strategy); err != nil {
		return Result{}, err
	}
	kernels := make([]nas.Kernel, cfg.Nodes)
	for i := range kernels {
		k, err := NewKernel(cfg.Kernel, cfg.KernelSize, cfg.Seed+uint64(i))
		if err != nil {
			return Result{}, err
		}
		kernels[i] = k
	}

	collector, err := NewCollector()
	if err != nil {
		return Result{}, err
	}
	defer collector.Close()

	// Relay i carries the traffic of node i's children to where node i's
	// own daemon sends: the collector for node 0, its parent's relay
	// otherwise. Relays are built top-down so parents exist before
	// children, and closed children first so upstream writes drain.
	var relays []*Relay
	defer func() {
		for i := len(relays) - 1; i >= 0; i-- {
			relays[i].Close()
		}
	}()
	tree := cfg.Tree && cfg.Nodes > 1
	dest := func(i int) string {
		if !tree || i == 0 {
			return collector.Addr()
		}
		return relays[(i-1)/2].Addr()
	}
	for i := 0; tree && i < cfg.Nodes; i++ {
		r, err := NewRelay(dest(i))
		if err != nil {
			return Result{}, err
		}
		relays = append(relays, r)
	}

	res := Result{Nodes: make([]NodeResult, cfg.Nodes)}
	errs := make([]error, cfg.Nodes)
	var wg sync.WaitGroup
	for i, kernel := range kernels {
		addr := dest(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.Nodes[i], errs[i] = runNode(i, kernel, addr, cfg)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return Result{}, err
	}

	want := 0
	for _, nr := range res.Nodes {
		want += nr.Daemon.SamplesForwarded
	}
	deadline := time.Now().Add(drainWait)
	for collector.Stats().Samples < want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	res.Collector = collector.Stats()
	for _, r := range relays {
		st := r.Stats()
		res.Relays = append(res.Relays, st)
		res.TotalRelayBusySec += st.BusySec
	}
	var appSec, pdSec float64
	for _, nr := range res.Nodes {
		appSec += nr.App.RunSec
		pdSec += nr.Daemon.BusySec
	}
	res.MeanDaemonBusySec = pdSec / float64(cfg.Nodes)
	if total := appSec + pdSec; total > 0 {
		res.NormalizedPdPct = pdSec / total * 100
		res.NormalizedMainPct = res.Collector.BusySec / total * 100
	}
	return res, nil
}

// runNode runs node i: its instrumented application, and its daemon
// forwarding to addr. It verifies the kernel's result once both are done.
func runNode(i int, kernel nas.Kernel, addr string, cfg Config) (NodeResult, error) {
	pipe := make(chan Sample, cfg.PipeCapacity)
	var nr NodeResult
	var derr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		nr.Daemon, derr = (&Daemon{Strategy: cfg.Strategy}).Run(addr, pipe)
	}()
	nr.App = runApp(kernel, pipe, cfg.SamplingPeriod, cfg.Duration)
	close(pipe)
	<-done
	if derr != nil {
		return nr, derr
	}
	if err := kernel.Verify(); err != nil {
		return nr, fmt.Errorf("testbed: node %d kernel verification: %w", i, err)
	}
	return nr, nil
}
