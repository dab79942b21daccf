// Package testbed is a working miniature of the Paradyn instrumentation
// system used for the measurement-based validation of Section 5: a real
// instrumented application (a NAS-like kernel from internal/nas) generates
// timestamped samples through a bounded pipe to a daemon goroutine, which
// forwards them over real loopback TCP to a collector standing in for the
// main Paradyn process, under either the collect-and-forward (CF) or
// batch-and-forward (BF) policy.
//
// Substitution note (see DESIGN.md): the paper measured the production
// Paradyn IS on an IBM SP-2 with the AIX kernel tracing facility. Here,
// direct IS overhead is measured as monotonic time spent inside the
// instrumented daemon and collector code regions; the CF-vs-BF phenomenon
// under study — per-sample system-call cost versus batched amortization —
// is exercised with genuine write(2) system calls on a real socket.
package testbed

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"rocc/internal/forward"
	"rocc/internal/stats"
)

// Sample is one instrumentation data sample.
type Sample struct {
	// GenTime is the generation timestamp.
	GenTime time.Time
	// Seq is the per-application sequence number.
	Seq uint64
}

const sampleWireBytes = 16 // int64 unix-nanos + uint64 seq

// encodeMessage appends a length-prefixed batch to buf and returns it.
func encodeMessage(buf []byte, batch []Sample) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(batch)))
	buf = append(buf, hdr[:]...)
	for _, s := range batch {
		var rec [sampleWireBytes]byte
		binary.LittleEndian.PutUint64(rec[0:8], uint64(s.GenTime.UnixNano()))
		binary.LittleEndian.PutUint64(rec[8:16], s.Seq)
		buf = append(buf, rec[:]...)
	}
	return buf
}

// maxFrameSamples bounds the sample count a message header may carry, so
// a corrupt header cannot make a reader allocate gigabytes.
const maxFrameSamples = 1 << 20

// readFrame reads one length-prefixed message from r into buf, grown as
// needed: the 4-byte sample count, then the samples. It returns the whole
// frame, its sample count and the time the header arrived. A count of 0
// or over maxFrameSamples is an error, as is a short read.
func readFrame(r io.Reader, buf []byte) (frame []byte, n int, start time.Time, err error) {
	if cap(buf) < 4 {
		buf = make([]byte, 0, 4096)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, 0, time.Time{}, err
	}
	start = time.Now()
	count := binary.LittleEndian.Uint32(buf[:4])
	if count == 0 || count > maxFrameSamples {
		return nil, 0, start, fmt.Errorf("testbed: message of %d samples", count)
	}
	n = int(count)
	need := 4 + n*sampleWireBytes
	if cap(buf) < need {
		grown := make([]byte, need)
		copy(grown, buf[:4])
		buf = grown
	}
	frame = buf[:need]
	if _, err := io.ReadFull(r, frame[4:]); err != nil {
		return nil, 0, start, err
	}
	return frame, n, start, nil
}

// frameHandler takes one received message (see readFrame) and returns
// false to end the connection it came on.
type frameHandler func(frame []byte, n int, start time.Time) bool

// server is the receiving side the collector and the relays share: a
// loopback listener that serves each connection on its own goroutine,
// handing every message to one handler until the peer closes or sends a
// malformed message.
type server struct {
	ln net.Listener
	wg sync.WaitGroup
}

func (s *server) listen(handle frameHandler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				var buf []byte
				for {
					frame, n, start, err := readFrame(conn, buf)
					if err != nil || !handle(frame, n, start) {
						return
					}
					buf = frame
				}
			}()
		}
	}()
	return nil
}

// Addr returns the dial address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections and waits for the handlers of open
// ones to finish, which they do when their peers close.
func (s *server) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// CollectorStats summarizes what the collector observed.
type CollectorStats struct {
	Samples  int
	Messages int
	// BusySec is the monotonic time spent in the collector's receive and
	// decode path — the main-process direct overhead proxy.
	BusySec float64
	// MeanLatencySec is mean generation-to-receipt monitoring latency.
	MeanLatencySec float64
	MaxLatencySec  float64
}

// Collector is the main-Paradyn-process stand-in: a loopback TCP server
// that receives forwarded sample messages.
type Collector struct {
	server

	mu       sync.Mutex
	samples  int
	messages int
	busy     time.Duration
	latency  stats.Accumulator
	maxLat   float64
}

// NewCollector starts a collector listening on an ephemeral loopback port.
func NewCollector() (*Collector, error) {
	c := &Collector{}
	if err := c.listen(c.receive); err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	return c, nil
}

func (c *Collector) receive(frame []byte, n int, start time.Time) bool {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		genNanos := int64(binary.LittleEndian.Uint64(frame[4+i*sampleWireBytes:]))
		lat := float64(now.UnixNano()-genNanos) / 1e9
		if lat < 0 {
			lat = 0
		}
		c.latency.Add(lat)
		if lat > c.maxLat {
			c.maxLat = lat
		}
	}
	c.samples += n
	c.messages++
	c.busy += time.Since(start)
	return true
}

// Stats returns a snapshot of the collector's accounting.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CollectorStats{
		Samples:        c.samples,
		Messages:       c.messages,
		BusySec:        c.busy.Seconds(),
		MeanLatencySec: c.latency.Mean(),
		MaxLatencySec:  c.maxLat,
	}
}

// RelayStats summarizes a relay's work.
type RelayStats struct {
	BusySec  float64
	Messages int
	Samples  int
}

// Relay is a non-leaf Paradyn daemon in the binary-tree forwarding
// configuration (Figure 4b), realized over real sockets: it accepts
// messages from its children, accounts the merge work, and re-forwards
// each message upstream.
type Relay struct {
	server
	upstream net.Conn

	mu       sync.Mutex
	busy     time.Duration
	messages int
	samples  int
}

// NewRelay starts a relay listening on an ephemeral loopback port and
// forwarding to upstreamAddr.
func NewRelay(upstreamAddr string) (*Relay, error) {
	up, err := net.Dial("tcp", upstreamAddr)
	if err != nil {
		return nil, fmt.Errorf("testbed: relay upstream: %w", err)
	}
	r := &Relay{upstream: up}
	if err := r.listen(r.forward); err != nil {
		up.Close()
		return nil, fmt.Errorf("testbed: relay listen: %w", err)
	}
	return r, nil
}

// forward re-sends a received message upstream as one write (the paper's
// note that a merged sample costs the same network occupancy as a local
// one).
func (r *Relay) forward(frame []byte, n int, start time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.upstream.Write(frame)
	r.messages++
	r.samples += n
	r.busy += time.Since(start)
	return err == nil
}

// Stats returns a snapshot of the relay's accounting.
func (r *Relay) Stats() RelayStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RelayStats{BusySec: r.busy.Seconds(), Messages: r.messages, Samples: r.samples}
}

// Close stops the relay (listener first, then the upstream link).
func (r *Relay) Close() error {
	err := r.server.Close()
	r.upstream.Close()
	return err
}

// DaemonStats summarizes the daemon's work.
type DaemonStats struct {
	// BusySec is the monotonic time spent collecting, encoding, and
	// writing — the Paradyn daemon direct overhead proxy.
	BusySec float64
	// Writes counts write system calls issued (one per sample under CF,
	// one per batch under BF — the mechanism behind Figure 30).
	Writes            int
	SamplesForwarded  int
	MessagesForwarded int
}

// Daemon forwards samples from the pipe to the collector until the pipe
// is closed, then flushes any partial batch. Its Strategy (nil = CF)
// decides after each sample read whether the buffered samples go out as
// one write.
type Daemon struct {
	Strategy forward.Strategy

	stats DaemonStats
}

// fixedBatch returns the batch size of a strategy the testbed can run —
// CF (or nil) and fixed BF — and an error for any other: the adaptive
// controller steers by feedback the simulator computes, which the real
// daemon does not.
func fixedBatch(s forward.Strategy) (int, error) {
	if _, batch := forward.PolicyOf(s); batch > 0 {
		return batch, nil
	}
	return 0, fmt.Errorf("testbed: strategy %q needs simulated feedback; the testbed runs cf or bf:<n>", s)
}

// Run drains pipe into a TCP connection to addr. It returns the daemon's
// statistics when the pipe closes.
func (d *Daemon) Run(addr string, pipe <-chan Sample) (DaemonStats, error) {
	batchSize, err := fixedBatch(d.Strategy)
	if err != nil {
		return DaemonStats{}, err
	}
	strategy := d.Strategy
	if strategy == nil {
		strategy = forward.NewCF()
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return DaemonStats{}, fmt.Errorf("testbed: %w", err)
	}
	defer conn.Close()

	batch := make([]Sample, 0, batchSize)
	buf := make([]byte, 0, 4+batchSize*sampleWireBytes)

	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		start := time.Now()
		buf = encodeMessage(buf[:0], batch)
		_, err := conn.Write(buf)
		d.stats.Writes++
		d.stats.SamplesForwarded += len(batch)
		d.stats.MessagesForwarded++
		d.stats.BusySec += time.Since(start).Seconds()
		batch = batch[:0]
		return err
	}

	// CF and fixed BF forward exactly the samples buffered when they say
	// ForwardNow, so the daemon flushes its whole batch.
	begin := time.Now()
	for s := range pipe {
		start := time.Now()
		batch = append(batch, s)
		act, _ := strategy.Decide(float64(start.Sub(begin).Microseconds()), len(batch), cap(pipe))
		d.stats.BusySec += time.Since(start).Seconds()
		if act == forward.ForwardNow {
			if err := flush(); err != nil {
				return d.stats, fmt.Errorf("testbed: forwarding: %w", err)
			}
		}
	}
	if err := flush(); err != nil {
		return d.stats, fmt.Errorf("testbed: final flush: %w", err)
	}
	return d.stats, nil
}
