package des

import (
	"testing"

	"rocc/internal/rng"
)

// FuzzCalendarDifferential drives one Push/Pop/Cancel op sequence, decoded
// from the fuzz input, through HeapCalendar (the oracle) and
// BucketCalendar in lockstep, and asserts that at every step both agree
// on Len() and pop the same (time, seq, canceled) event. Events are
// distinct structs per calendar (the bucket calendar owns its queued
// events' bslot and list links) but share time, seq, and cancellation
// fate.
//
// Op byte decoding (two bytes consumed per op):
//   - b%8 == 0..2 → Push at a time derived from the second byte (equal
//     times are common on purpose, to stress the seq tie-break; time can
//     also fall below earlier pushes, stressing the bucket scan pull-back)
//   - b%8 == 3    → Burst: push 32 + arg/8%32 events at one instant on the
//     same grid, as synchronized sampling timers do; interleaved with pop
//     runs this grows one bucket's list by tail appends and unlinks it
//     from the head, and crosses the resize threshold
//   - b%8 == 4..5 → Pop from both, compare
//   - b%8 == 6    → Pop run: arg%64 pops, compared one by one
//   - b%8 == 7    → Cancel a pending event picked by the second byte
//     (canceled events still flow through the calendars; the simulator,
//     not the calendar, discards them)
func FuzzCalendarDifferential(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 4, 0, 7, 0, 4, 0, 4, 0})
	f.Add([]byte{0, 1, 8, 1, 16, 1, 4, 0, 4, 0, 4, 0, 4, 0})
	// 63 events at t=0, 40 pops, a 32-event burst into the same bucket
	// (compacting it), then a burst at a later instant and a drain.
	f.Add([]byte{3, 248, 6, 40, 3, 0, 6, 10, 3, 3, 7, 5, 6, 63})
	// One seed per insert branch. Until the first resize every grid time
	// lands in bucket 0, so these exercise one bucket's list directly:
	// push into an empty bucket, then pop it;
	f.Add([]byte{0, 4, 4, 0})
	// tail appends, including equal times that append in seq order;
	f.Add([]byte{0, 1, 0, 2, 0, 2, 0, 2, 0, 3, 6, 8})
	// new heads, including an equal-time event behind the head;
	f.Add([]byte{0, 9, 0, 5, 0, 1, 0, 1, 6, 8})
	// walks from the head into the middle, with equal-time runs inside
	// the bucket (5, 5 between 1 and 9, then 3 and 7 among them).
	f.Add([]byte{0, 1, 0, 9, 0, 5, 0, 5, 0, 3, 0, 7, 0, 5, 6, 8})
	// The same branches after a resize has spread events over many
	// buckets: 40 shuffled pushes, a partial drain, then more out-of-order
	// pushes and a cancel before the final drain.
	spread := make([]byte, 0, 128)
	for i := 0; i < 40; i++ {
		spread = append(spread, 0, byte(i*13%32))
	}
	spread = append(spread, 6, 20)
	for i := 0; i < 12; i++ {
		spread = append(spread, 1, byte(31-i*5%32))
	}
	spread = append(spread, 7, 3, 6, 63)
	f.Add(spread)
	// Occupancy-bitmap seeds. Pushes at grid 0..4 grow the calendar to 32
	// buckets and set the width to 3/8 of their 7.5 µs gap (2.8125 µs, a
	// grid step of 8/3 buckets), so later grid times spread over many
	// buckets and years.
	grid := func(ops []byte, from, to int) []byte {
		for g := from; g <= to; g++ {
			ops = append(ops, 0, byte(g))
		}
		return ops
	}
	// A skip that wraps the end of a 16-bucket array: four pops shrink
	// the calendar to 16 buckets (a 45 µs year) around grid 4 in slot 10.
	// Grid 5 lands in slot 13 before the wrap, grid 8 in slot 5 after it,
	// and grid 13 in slot 2 a year later, so after the wrap the scan must
	// pass grid 13 to reach grid 8.
	f.Add(append(grid(nil, 0, 4), 6, 4, 0, 13, 0, 8, 0, 5, 6, 8))
	// A year with no event: with grid 4 popped, grid 31 lies 72 buckets
	// ahead of the scan, past the 16-bucket year, so the scan comes back
	// empty and the calendar recalibrates its width around grid 31.
	f.Add(append(grid(nil, 0, 4), 6, 4, 0, 31, 6, 2))
	// The same at 32 buckets (a 90 µs year): grid 11 in slot 29 before
	// the wrap, grid 14 in slot 5 after it, and grid 24 and 25 a year
	// later in slots 0 and 2.
	f.Add(append(grid(nil, 0, 4), 6, 2, 0, 11, 0, 24, 0, 25, 0, 14, 6, 8))
	// Scans across the bitmap's words: grid 0..8 keep the width while the
	// calendar grows to 64 buckets, and grid 22..28 fill it to 16 events,
	// the last four a year later, so the drain wraps the one-word array.
	// With grid 0..16 and 24..31 the calendar holds 25 events in 128
	// buckets, and the drain crosses from word 0 to word 1.
	f.Add(append(grid(grid(nil, 0, 8), 22, 28), 6, 63))
	f.Add(append(grid(grid(nil, 0, 16), 24, 31), 6, 63))
	// Grow/shrink oscillation across the thresholds: 16 buckets grow to
	// 32 at the fifth event and shrink back when pops leave one, four
	// times; then 16 events grow the calendar to 128 buckets and 16 pops
	// shrink it back to 16, twice.
	osc := grid(nil, 0, 0)
	for k := 0; k < 4; k++ {
		osc = append(grid(osc, 2*k+1, 2*k+4), 6, 4)
	}
	for k := 0; k < 2; k++ {
		osc = append(grid(osc, 10, 25), 6, 16)
	}
	f.Add(append(osc, 6, 63))
	// Later-year events sharing a bucket with current-year events, at 32
	// buckets: after three pops, grid 15 joins grid 3 in slot 8 and grid
	// 16 joins grid 4 in slot 10, a year later; two more events at grid
	// 3's time then go between grid 3 and grid 15, by a walk back from
	// the tail. Once the grid 3 run pops, slot 8's head is a year ahead
	// and the scan must pass it.
	f.Add(append(grid(nil, 0, 4), 6, 3, 0, 16, 0, 15, 0, 3, 0, 3, 4, 0, 6, 8))
	seed := make([]byte, 0, 120)
	r := rng.New(4242)
	for i := 0; i < 60; i++ {
		seed = append(seed, byte(r.Intn(256)), byte(r.Intn(256)))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		cals := []Calendar{NewHeapCalendar(), NewBucketCalendar()}
		// pending[k] holds the queued events of calendar k, same order
		// across calendars, so "cancel the j-th pending event" is the
		// same logical event everywhere.
		pending := make([][]*Event, len(cals))
		var seq uint64
		push := func(tm Time) {
			for k, c := range cals {
				e := &Event{time: tm, seq: seq}
				c.Push(e)
				pending[k] = append(pending[k], e)
			}
			seq++
		}
		pop := func(i int) {
			var got *Event
			for k, c := range cals {
				e := c.Pop()
				if k == 0 {
					got = e
					continue
				}
				switch {
				case (e == nil) != (got == nil):
					t.Fatalf("op %d: %T popped %v, heap popped %v", i, c, e, got)
				case e != nil && (e.time != got.time || e.seq != got.seq || e.canceled != got.canceled):
					t.Fatalf("op %d: %T popped (t=%v seq=%d canceled=%v), heap popped (t=%v seq=%d canceled=%v)",
						i, c, e.time, e.seq, e.canceled, got.time, got.seq, got.canceled)
				}
			}
			if got != nil {
				for k := range pending {
					for j, e := range pending[k] {
						if e.seq == got.seq {
							pending[k] = append(pending[k][:j], pending[k][j+1:]...)
							break
						}
					}
				}
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			tm := Time(arg%32) * 7.5 // coarse grid → frequent time collisions
			switch op % 8 {
			case 0, 1, 2:
				push(tm)
			case 3:
				tm = Time(arg%8) * 7.5
				for n := 32 + int(arg/8)%32; n > 0; n-- {
					push(tm)
				}
			case 4, 5:
				pop(i)
			case 6:
				for n := int(arg) % 64; n > 0; n-- {
					pop(i)
				}
			case 7:
				if n := len(pending[0]); n > 0 {
					j := int(arg) % n
					for k := range pending {
						pending[k][j].Cancel()
					}
				}
			}
			for k := 1; k < len(cals); k++ {
				if cals[k].Len() != cals[0].Len() {
					t.Fatalf("op %d: %T Len %d != heap Len %d", i, cals[k], cals[k].Len(), cals[0].Len())
				}
			}
		}
		// Drain: the remaining pop order must agree too.
		for {
			e0 := cals[0].Pop()
			for k := 1; k < len(cals); k++ {
				e := cals[k].Pop()
				if (e == nil) != (e0 == nil) {
					t.Fatalf("drain: %T popped %v, heap popped %v", cals[k], e, e0)
				}
				if e != nil && (e.time != e0.time || e.seq != e0.seq) {
					t.Fatalf("drain: %T popped (t=%v seq=%d), heap popped (t=%v seq=%d)",
						cals[k], e.time, e.seq, e0.time, e0.seq)
				}
			}
			if e0 == nil {
				return
			}
		}
	})
}
