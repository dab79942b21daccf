package forward

// MessagePool recycles the messages of one model. Every message has
// exactly one owner at a time: the daemon job that fills it, the network
// transfer carrying it, the uplink holding it for retransmission, the
// relay daemon merging it, or the main process consuming it. Whoever
// drops a message — the main process after receipt, a crash, a link's
// loss or duplicate discard — returns it with Put, and the next Get hands
// it out again with its sample array intact. No message is ever shared,
// so no reference count is needed: a link that must keep a message for
// resending delivers a Copy instead.
//
// A pool belongs to one simulation and is not safe for concurrent use.
// It draws no random numbers and schedules nothing, so pooling cannot
// change a run's results.
//
// Fresh messages are cut from slabs that double up to maxMsgSlab
// messages, so a backlog of messages in flight costs one allocation per
// slab, not one per message.
type MessagePool struct {
	free      []*Message
	slab      []Message
	allocated int
}

const maxMsgSlab = 64

// Get returns a live message with no samples; its sample array keeps the
// capacity of its previous use.
func (p *MessagePool) Get() *Message {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		m.released = false
		return m
	}
	if len(p.slab) == 0 {
		p.slab = make([]Message, min(max(p.allocated, 1), maxMsgSlab))
	}
	p.allocated++
	m := &p.slab[0]
	p.slab = p.slab[1:]
	return m
}

// Put releases m to the pool. The caller gives up ownership: m must not
// be used again until a Get hands it out. Releasing a message twice
// panics.
func (p *MessagePool) Put(m *Message) {
	m.MustBeLive("forward.MessagePool.Put")
	*m = Message{Samples: m.Samples[:0], released: true}
	p.free = append(p.free, m)
}

// Copy returns a pooled message with m's contents and its own sample
// array, so the copy and m can go separate ways.
func (p *MessagePool) Copy(m *Message) *Message {
	m.MustBeLive("forward.MessagePool.Copy")
	c := p.Get()
	c.Samples = append(c.Samples, m.Samples...)
	c.FromNode, c.Hops = m.FromNode, m.Hops
	return c
}

// Free returns the number of released messages waiting for reuse.
func (p *MessagePool) Free() int { return len(p.free) }

// Allocated returns the number of messages the pool has ever created: the
// high-water mark of messages alive at once. Once every message has been
// released, Free equals Allocated.
func (p *MessagePool) Allocated() int { return p.allocated }

// MustBeLive panics if m has been released to its pool; site names the
// hand-off point in the message. Every owner-to-owner hand-off calls it,
// so a use after release fails where it happens instead of corrupting a
// message that a later Get has handed to someone else.
func (m *Message) MustBeLive(site string) {
	if m.released {
		panic(site + ": message used after release to its pool")
	}
}
