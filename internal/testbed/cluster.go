package testbed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"rocc/internal/forward"
)

// Relay is a non-leaf Paradyn daemon in the binary-tree forwarding
// configuration (Figure 4b), realized over real sockets: it accepts
// messages from its children, accounts the merge work, and re-forwards
// each message upstream.
type Relay struct {
	ln       net.Listener
	upstream net.Conn

	mu       sync.Mutex
	busy     time.Duration
	messages int
	samples  int

	wg sync.WaitGroup
}

// RelayStats summarizes a relay's work.
type RelayStats struct {
	BusySec  float64
	Messages int
	Samples  int
}

// NewRelay starts a relay listening on an ephemeral loopback port and
// forwarding to upstreamAddr.
func NewRelay(upstreamAddr string) (*Relay, error) {
	up, err := net.Dial("tcp", upstreamAddr)
	if err != nil {
		return nil, fmt.Errorf("testbed: relay upstream: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		up.Close()
		return nil, fmt.Errorf("testbed: relay listen: %w", err)
	}
	r := &Relay{ln: ln, upstream: up}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr returns the relay's dial address.
func (r *Relay) Addr() string { return r.ln.Addr().String() }

func (r *Relay) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.serve(conn)
		}()
	}
}

func (r *Relay) serve(conn net.Conn) {
	defer conn.Close()
	var hdr [4]byte
	body := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		start := time.Now()
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 || n > 1<<20 {
			return
		}
		need := int(n) * sampleWireBytes
		if cap(body) < need {
			body = make([]byte, need)
		}
		body = body[:need]
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		// Merge and re-forward: one upstream write per received message
		// (the paper's note that a merged sample costs the same network
		// occupancy as a local one).
		r.mu.Lock()
		_, werr := r.upstream.Write(hdr[:])
		if werr == nil {
			_, werr = r.upstream.Write(body)
		}
		r.messages++
		r.samples += int(n)
		r.busy += time.Since(start)
		r.mu.Unlock()
		if werr != nil {
			return
		}
	}
}

// Stats returns a snapshot of the relay's accounting.
func (r *Relay) Stats() RelayStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RelayStats{BusySec: r.busy.Seconds(), Messages: r.messages, Samples: r.samples}
}

// Close stops the relay (listener first, then the upstream link).
func (r *Relay) Close() error {
	err := r.ln.Close()
	r.wg.Wait()
	r.upstream.Close()
	return err
}

// ClusterConfig describes a multi-node measurement experiment: the
// Figure 29 setup, with one instrumented application and one daemon per
// node, all forwarding to a single collector — directly or through a
// binary tree of relays (Figure 4).
type ClusterConfig struct {
	Nodes int

	Kernel     string
	KernelSize int

	// Strategy is the daemons' forwarding policy: nil or forward.NewCF,
	// or forward.NewFixedBF. Adaptive strategies are rejected.
	Strategy forward.Strategy

	SamplingPeriod time.Duration
	Duration       time.Duration
	PipeCapacity   int
	Seed           uint64

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

// ClusterResult is the outcome of a cluster run.
type ClusterResult struct {
	Nodes     []NodeResult
	Relays    []RelayStats
	Collector CollectorStats

	// MeanDaemonBusySec is the per-node average daemon overhead — the
	// "average direct overhead" global metric of §2.1.
	MeanDaemonBusySec float64
	// TotalRelayBusySec is the extra merge work of tree forwarding.
	TotalRelayBusySec float64
}

// RunCluster executes a multi-node measurement experiment.
func RunCluster(cfg ClusterConfig) (ClusterResult, error) {
	if cfg.Nodes < 1 {
		return ClusterResult{}, errors.New("testbed: cluster needs at least one node")
	}
	if cfg.Duration <= 0 || cfg.SamplingPeriod <= 0 {
		return ClusterResult{}, errors.New("testbed: Duration and SamplingPeriod must be positive")
	}
	if cfg.PipeCapacity <= 0 {
		cfg.PipeCapacity = 256
	}
	if _, err := fixedBatch(cfg.Strategy); err != nil {
		return ClusterResult{}, err
	}

	collector, err := NewCollector()
	if err != nil {
		return ClusterResult{}, err
	}
	defer collector.Close()

	// Build relays: relay[i] carries traffic arriving at node i from its
	// children; it forwards to node i's own destination.
	var relays []*Relay
	dest := make([]string, cfg.Nodes) // where node i's daemon dials
	if cfg.Tree && cfg.Nodes > 1 {
		relays = make([]*Relay, cfg.Nodes)
		// Create relays top-down so parents exist before children.
		for i := 0; i < cfg.Nodes; i++ {
			up := collector.Addr()
			if i > 0 {
				up = relays[(i-1)/2].Addr()
			}
			r, err := NewRelay(up)
			if err != nil {
				closeRelays(relays[:i])
				return ClusterResult{}, err
			}
			relays[i] = r
		}
		for i := 0; i < cfg.Nodes; i++ {
			if i == 0 {
				dest[i] = collector.Addr()
			} else {
				dest[i] = relays[(i-1)/2].Addr()
			}
		}
	} else {
		for i := range dest {
			dest[i] = collector.Addr()
		}
	}

	results := make([]NodeResult, cfg.Nodes)
	errs := make([]error, cfg.Nodes)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Nodes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernel, err := NewKernel(cfg.Kernel, cfg.KernelSize, cfg.Seed+uint64(i))
			if err != nil {
				errs[i] = err
				return
			}
			pipe := make(chan Sample, cfg.PipeCapacity)
			daemon := &Daemon{Strategy: cfg.Strategy}
			done := make(chan struct{})
			var dstats DaemonStats
			var derr error
			go func() {
				defer close(done)
				dstats, derr = daemon.Run(dest[i], pipe)
			}()
			results[i].App = runApp(kernel, pipe, cfg.SamplingPeriod, cfg.Duration)
			close(pipe)
			<-done
			if derr != nil {
				errs[i] = derr
				return
			}
			results[i].Daemon = dstats
			errs[i] = kernel.Verify()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeRelays(relays)
			return ClusterResult{}, err
		}
	}

	// Wait for in-flight messages (bounded).
	wantSamples := 0
	for _, nr := range results {
		wantSamples += nr.Daemon.SamplesForwarded
	}
	deadline := time.Now().Add(3 * time.Second)
	for collector.Stats().Samples < wantSamples && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	// Relays closed only after traffic has drained.
	out := ClusterResult{Nodes: results, Collector: collector.Stats()}
	for _, r := range relays {
		st := r.Stats()
		out.Relays = append(out.Relays, st)
		out.TotalRelayBusySec += st.BusySec
	}
	closeRelays(relays)
	for _, nr := range results {
		out.MeanDaemonBusySec += nr.Daemon.BusySec
	}
	out.MeanDaemonBusySec /= float64(cfg.Nodes)
	return out, nil
}

func closeRelays(relays []*Relay) {
	// Close children before parents so upstream writes drain.
	for i := len(relays) - 1; i >= 0; i-- {
		if relays[i] != nil {
			relays[i].Close()
		}
	}
}
