package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"rocc/internal/scenario"
)

// frameHeader is a bare length prefix declaring n payload bytes.
func frameHeader(n uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, n)
}

// rawFrame frames payload as is, valid JSON or not.
func rawFrame(payload string) []byte {
	return append(frameHeader(uint32(len(payload))), payload...)
}

// A header that declares the largest legal payload and then ends must
// fail without first allocating that payload: memory follows the bytes
// that arrive, not the length a peer claims.
func TestReadFrameLyingHeaderAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := readFrame(bytes.NewReader(frameHeader(maxFrame)), &response{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want an unexpected-EOF error", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("readFrame allocated %d bytes for an empty %d-byte frame, want < 1 MiB", d, maxFrame)
	}
	if err := readFrame(bytes.NewReader(frameHeader(maxFrame+1)), &response{}); err == nil {
		t.Fatal("readFrame accepted a length over maxFrame")
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// (live+1)-th call on, so a test can cancel at an exact point of a loop
// that polls Err.
type cancelAfter struct {
	context.Context
	live, calls int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls > c.live {
		return context.Canceled
	}
	return nil
}

// An in-process attempt cancelled mid-shard stops before its next job,
// so a timed-out or speculative twin does not run out its shard. Job 1
// is invalid: had it run, its error would replace the cancellation.
func TestInProcessCancelMidShard(t *testing.T) {
	bad := Job{Spec: scenario.Spec{Arch: "no-such-arch", Nodes: 1, Duration: 1000}}
	jobs := append(testJobs(t, 1), bad, bad)
	a := &attempt{wireTrace: wireTrace{Shard: 0, Attempt: 1}}
	ctx := &cancelAfter{Context: withAttempt(context.Background(), a), live: 1}
	res, err := inProcWorker{}.Run(ctx, 0, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled before job 1", err)
	}
	if res != nil || a.spans != nil {
		t.Fatalf("cancelled attempt returned %d results and %d spans, want none", len(res), len(a.spans))
	}
	if ctx.calls != 2 {
		t.Fatalf("shard polled cancellation %d times, want 2 (before job 0 and job 1)", ctx.calls)
	}
}

// checkFrameRoundTrip decodes data as one T frame; when the frame is
// accepted, it must re-encode through writeFrame and decode to a value
// that encodes to the same bytes again. Equality is taken on the wire
// because omitempty folds an empty slice into an absent one.
func checkFrameRoundTrip[T any](t *testing.T, data []byte) {
	var v T
	if readFrame(bytes.NewReader(data), &v) != nil {
		return
	}
	var first bytes.Buffer
	if err := writeFrame(&first, v); err != nil {
		t.Fatalf("accepted %T does not re-encode: %v", v, err)
	}
	want := append([]byte(nil), first.Bytes()...)
	var back T
	if err := readFrame(&first, &back); err != nil {
		t.Fatalf("re-encoded %T does not decode: %v", v, err)
	}
	var second bytes.Buffer
	if err := writeFrame(&second, back); err != nil {
		t.Fatalf("round-tripped %T does not re-encode: %v", v, err)
	}
	if !bytes.Equal(second.Bytes(), want) {
		t.Fatalf("%T changed across a round trip:\n%s\n%s", v, want[4:], second.Bytes()[4:])
	}
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader as both
// a request and a response: it must never panic, and every accepted frame
// must survive writeFrame → readFrame unchanged.
func FuzzReadFrame(f *testing.F) {
	frame := func(v any) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, v); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	jobs := testJobs(f, 1)
	tc := wireTrace{Shard: 3, Attempt: 2, Base: 6}
	res, spans, err := executeShard(context.Background(), jobs, tc)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		frame(request{V: wireVersion, ID: 3, Jobs: jobs, Trace: tc}),
		frame(response{V: wireVersion, ID: 3, Results: res, Spans: spans}),
		frame(response{V: wireVersion, ID: 4, Error: "job 0: boom"}),
		{0, 0},                    // truncated header
		frameHeader(maxFrame + 1), // oversized length
		rawFrame("hello"),         // not JSON
		rawFrame(`{"v"`),          // truncated JSON
		rawFrame(`{"id":[]}`),     // wrong type
		rawFrame(`{"jobs":{}}`),   // wrong shape
		rawFrame(`{"results":[]}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrameRoundTrip[request](t, data)
		checkFrameRoundTrip[response](t, data)
	})
}
