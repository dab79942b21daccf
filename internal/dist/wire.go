package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"rocc/internal/core"
)

// The wire protocol between driver and worker: length-prefixed JSON
// frames over the worker's stdin/stdout. Each frame is a 4-byte
// big-endian payload length followed by one JSON document. The driver
// sends one request at a time per worker and waits for the matching
// response; a worker that answers with the wrong shard id, an oversized
// frame, or malformed JSON is treated as failed and replaced — the shard
// is simply retried, so protocol corruption can never corrupt results.

// wireVersion is bumped on any incompatible protocol change, including a
// change in what a core.Result means (2: percentiles from the main
// process's histogram; 3: the main process served as one thread, and the
// three pipe-drop counts gone); mismatches fail the shard (and eventually
// drain it locally) rather than guessing.
const wireVersion = 3

// maxFrame bounds a frame payload (64 MiB) so a corrupt length prefix
// cannot make the driver attempt a multi-gigabyte allocation.
const maxFrame = 64 << 20

// request asks a worker to execute one shard: run every job, in order.
// Trace labels the per-job spans the worker records and returns. A
// request from an older coordinator may omit it and decodes to the zero
// value, so the field needed no version bump.
type request struct {
	V     int       `json:"v"`
	ID    int       `json:"id"` // shard index, echoed in the response
	Jobs  []Job     `json:"jobs"`
	Trace wireTrace `json:"trace"`
}

// wireTrace is the trace context forwarded with a shard request: enough
// for the worker to label its spans with sweep-global coordinates.
type wireTrace struct {
	Shard   int `json:"shard"`
	Attempt int `json:"attempt"`
	// Base is the shard's first global job index.
	Base int `json:"base"`
}

// response carries a shard's results (one per job, in job order) or the
// error that stopped execution. Spans are the worker's trace spans —
// they ride alongside Results and never influence them.
type response struct {
	V       int           `json:"v"`
	ID      int           `json:"id"`
	Results []core.Result `json:"results,omitempty"`
	Error   string        `json:"error,omitempty"`
	Spans   []Span        `json:"spans,omitempty"`
}

// writeFrame marshals v and writes one length-prefixed frame.
func writeFrame(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dist: encode frame: %w", err)
	}
	if len(b) > maxFrame {
		return fmt.Errorf("dist: frame of %d bytes exceeds %d-byte limit", len(b), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// readFrame reads one length-prefixed frame into v. io.EOF is returned
// unwrapped when the stream ends cleanly between frames (worker
// shutdown); any mid-frame truncation is an unexpected-EOF error.
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("dist: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("dist: frame of %d bytes exceeds %d-byte limit", n, maxFrame)
	}
	// The buffer grows with the bytes that arrive, not with the declared
	// length, so a header that lies about its length costs only what
	// actually arrives.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("dist: read frame payload: %w", err)
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		return fmt.Errorf("dist: decode frame: %w", err)
	}
	return nil
}

// ServeWorker runs the worker side of the protocol until the driver
// closes the connection (EOF on r): read a shard request, execute its
// jobs in order, write the response. Commands embedding the sweep engine
// dispatch their -worker flag here with os.Stdin/os.Stdout.
//
// Job errors are reported in-band (the driver retries the shard and, if
// it keeps failing, reproduces the error deterministically through the
// local fallback); only transport-level failures end the loop.
func ServeWorker(r io.Reader, w io.Writer) error {
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	for {
		var req request
		switch err := readFrame(br, &req); {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		}
		resp := response{V: wireVersion, ID: req.ID}
		if req.V != wireVersion {
			resp.Error = fmt.Sprintf("dist: protocol version %d, worker speaks %d", req.V, wireVersion)
		} else if results, spans, err := executeShard(context.Background(), req.Jobs, req.Trace); err != nil {
			resp.Error = err.Error()
		} else {
			resp.Results = results
			resp.Spans = spans
		}
		if err := writeFrame(bw, resp); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// executeShard runs a shard's jobs in order — for the wire-protocol
// worker, the in-process worker and the local fallback alike — stopping
// with ctx's error before any job once ctx is done. It records one span
// per job and one for the whole shard, timed from the call and labeled
// by tc; the spans only observe, so the results are the same whoever
// runs the shard.
func executeShard(ctx context.Context, jobs []Job, tc wireTrace) ([]core.Result, []Span, error) {
	t0 := time.Now()
	sinceUS := func() float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }
	out := make([]core.Result, 0, len(jobs))
	spans := make([]Span, 0, len(jobs)+1)
	for i, j := range jobs {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		start := sinceUS()
		r, err := Execute(j)
		if err != nil {
			return nil, nil, fmt.Errorf("job %d: %w", i, err)
		}
		spans = append(spans, Span{Name: fmt.Sprintf("job %d", tc.Base+i), Cat: "job",
			StartUS: start, DurUS: sinceUS() - start, Shard: tc.Shard, Attempt: tc.Attempt, Job: tc.Base + i})
		out = append(out, r)
	}
	spans = append(spans, Span{Name: fmt.Sprintf("run shard %d", tc.Shard), Cat: "run",
		DurUS: sinceUS(), Shard: tc.Shard, Attempt: tc.Attempt, Job: -1})
	return out, spans, nil
}
