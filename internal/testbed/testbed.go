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
	ln net.Listener

	mu       sync.Mutex
	samples  int
	messages int
	busy     time.Duration
	latency  stats.Accumulator
	maxLat   float64

	wg sync.WaitGroup
}

// NewCollector starts a collector listening on an ephemeral loopback port.
func NewCollector() (*Collector, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	c := &Collector{ln: ln}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the collector's dial address.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

func (c *Collector) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.serve(conn)
		}()
	}
}

func (c *Collector) serve(conn net.Conn) {
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
		now := time.Now()
		c.mu.Lock()
		for i := 0; i < int(n); i++ {
			genNanos := int64(binary.LittleEndian.Uint64(body[i*sampleWireBytes:]))
			lat := float64(now.UnixNano()-genNanos) / 1e9
			if lat < 0 {
				lat = 0
			}
			c.latency.Add(lat)
			if lat > c.maxLat {
				c.maxLat = lat
			}
		}
		c.samples += int(n)
		c.messages++
		c.busy += time.Since(start)
		c.mu.Unlock()
	}
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

// Close stops the collector and waits for connection handlers to finish.
func (c *Collector) Close() error {
	err := c.ln.Close()
	c.wg.Wait()
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
