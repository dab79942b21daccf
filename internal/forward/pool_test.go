package forward

import (
	"strings"
	"testing"

	"rocc/internal/resources"
)

// A copy owns its own sample array, a recycled message keeps its
// capacity but none of its contents, and the pool's counts balance once
// everything is back.
func TestMessagePoolRecyclesAndCopies(t *testing.T) {
	var p MessagePool
	m := p.Get()
	m.Samples = append(m.Samples, resources.Sample{Seq: 1}, resources.Sample{Seq: 2})
	m.FromNode, m.Hops = 3, 2

	c := p.Copy(m)
	m.Samples[0].Seq = 99
	m.Hops++
	if c.Samples[0].Seq != 1 || c.Hops != 2 || c.FromNode != 3 || len(c.Samples) != 2 {
		t.Fatalf("copy %+v shares state with its original", *c)
	}
	if p.Allocated() != 2 || p.Free() != 0 {
		t.Fatalf("allocated %d, free %d; want 2, 0", p.Allocated(), p.Free())
	}

	p.Put(m)
	p.Put(c)
	if p.Free() != p.Allocated() {
		t.Fatalf("free %d != allocated %d after releasing everything", p.Free(), p.Allocated())
	}
	r := p.Get()
	if r != c || len(r.Samples) != 0 || cap(r.Samples) < 2 || r.Hops != 0 || r.FromNode != 0 {
		t.Fatalf("recycled message %+v: want the last one released, emptied, capacity kept", *r)
	}
	r.MustBeLive("test") // a message handed out again is live
}

func TestMessagePoolDoublePutPanics(t *testing.T) {
	var p MessagePool
	m := p.Get()
	p.Put(m)
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "forward.MessagePool.Put: ") {
			t.Fatalf("panic %q, want a use-after-release panic from Put", msg)
		}
	}()
	p.Put(m)
}
