package testbed

import (
	"errors"
	"fmt"
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

// ExpConfig describes one measurement experiment (one cell of the
// Figure 30 / Figure 31 designs).
type ExpConfig struct {
	// Kernel selects the application: "bt" (pvmbt) or "is" (pvmis).
	Kernel string
	// KernelSize scales the kernel (BT grid edge / IS key count); zero
	// picks a default sized so one step takes ~a millisecond.
	KernelSize int

	// Strategy is the daemon's forwarding policy: nil or forward.NewCF,
	// or forward.NewFixedBF. Adaptive strategies are rejected.
	Strategy forward.Strategy

	SamplingPeriod time.Duration
	Duration       time.Duration
	PipeCapacity   int
	Seed           uint64
}

// ExpResult is the outcome of one measurement experiment.
type ExpResult struct {
	App       AppStats
	Daemon    DaemonStats
	Collector CollectorStats

	// NormalizedPdPct is daemon busy time normalized by total observed
	// CPU occupancy at the node (daemon + application), the Figure 31
	// normalization.
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

// Run executes one measurement experiment end to end: collector, daemon,
// and instrumented application on real goroutines and sockets.
func Run(cfg ExpConfig) (ExpResult, error) {
	if cfg.Duration <= 0 {
		return ExpResult{}, errors.New("testbed: Duration must be positive")
	}
	if cfg.SamplingPeriod <= 0 {
		return ExpResult{}, errors.New("testbed: SamplingPeriod must be positive")
	}
	if cfg.PipeCapacity <= 0 {
		cfg.PipeCapacity = 256
	}
	if _, err := fixedBatch(cfg.Strategy); err != nil {
		return ExpResult{}, err
	}
	kernel, err := NewKernel(cfg.Kernel, cfg.KernelSize, cfg.Seed)
	if err != nil {
		return ExpResult{}, err
	}

	collector, err := NewCollector()
	if err != nil {
		return ExpResult{}, err
	}
	defer collector.Close()

	pipe := make(chan Sample, cfg.PipeCapacity)
	daemon := &Daemon{Strategy: cfg.Strategy}
	daemonDone := make(chan struct{})
	var dstats DaemonStats
	var derr error
	go func() {
		defer close(daemonDone)
		dstats, derr = daemon.Run(collector.Addr(), pipe)
	}()

	appStats := runApp(kernel, pipe, cfg.SamplingPeriod, cfg.Duration)
	close(pipe)
	<-daemonDone
	if derr != nil {
		return ExpResult{}, derr
	}
	if err := kernel.Verify(); err != nil {
		return ExpResult{}, fmt.Errorf("testbed: kernel verification: %w", err)
	}
	// Give in-flight messages a moment to land, then settle.
	deadline := time.Now().Add(2 * time.Second)
	var cstats CollectorStats
	for {
		cstats = collector.Stats()
		if cstats.Samples >= dstats.SamplesForwarded || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	res := ExpResult{App: appStats, Daemon: dstats, Collector: cstats}
	total := appStats.RunSec + dstats.BusySec
	if total > 0 {
		res.NormalizedPdPct = dstats.BusySec / total * 100
		res.NormalizedMainPct = cstats.BusySec / total * 100
	}
	return res, nil
}
