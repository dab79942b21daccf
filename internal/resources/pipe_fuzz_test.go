package resources

import (
	"testing"

	"rocc/internal/des"
)

// FuzzPipeInvariants drives a Pipe through a random operation sequence
// (puts, gets, runs of gets, capacity squeezes) and checks the structural
// invariants that the fault layer depends on:
//
//   - the buffer never exceeds the declared capacity;
//   - blocked writers resume in FIFO order;
//   - sample conservation: every offered sample is accounted for exactly
//     once — offered = accepted + still blocked, and accepted = taken by
//     Get + still buffered.
func FuzzPipeInvariants(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 3, 4, 0, 1}, uint8(1))
	f.Add([]byte{0, 0, 0, 0, 2, 2, 2}, uint8(2))
	f.Add([]byte{0, 4, 0, 0, 19, 2, 2, 0, 24, 3}, uint8(3))
	f.Add([]byte{0, 0, 0, 9, 2, 0, 0, 14, 2, 2, 2, 2}, uint8(0))
	f.Fuzz(func(t *testing.T, ops []byte, cap8 uint8) {
		capacity := int(cap8)%8 + 1
		p := NewPipe(capacity)
		now := des.Time(0)
		p.SetClock(func() des.Time { return now })

		var blockedOrder []int // ids of puts that blocked, in block order
		var admitted []int     // ids admitted from the blocked queue
		offered, accepted, gets := 0, 0, 0
		get := func() bool {
			_, ok := p.Get()
			if ok {
				gets++
			}
			return ok
		}
		for _, op := range ops {
			now++
			switch op % 5 {
			case 0, 1: // put
				id := offered
				offered++
				before := p.Blocked()
				ok := p.Put(Sample{Proc: id}, func() {
					admitted = append(admitted, id)
					accepted++
				})
				if ok {
					accepted++
				} else {
					blockedOrder = append(blockedOrder, id)
					if p.Blocked() != before+1 {
						t.Fatalf("blocked count %d, want %d", p.Blocked(), before+1)
					}
				}
			case 2: // get
				get()
			case 3: // a run of gets; 0 takes every buffered sample
				n := int(op/5) % (capacity + 2)
				if n == 0 {
					n = p.Len()
				}
				for i := 0; i < n && get(); i++ {
				}
			case 4: // capacity squeeze / release
				p.SetCapacityLimit(int(op/5) % (capacity + 2))
			}
			if p.Len() > capacity {
				t.Fatalf("len %d exceeds capacity %d", p.Len(), capacity)
			}
			if p.Len() < 0 || p.Blocked() < 0 {
				t.Fatal("negative occupancy")
			}
		}

		// Blocked writers resume FIFO: the admitted ids are exactly the
		// first len(admitted) blocked ids, in order.
		if len(admitted) > len(blockedOrder) {
			t.Fatalf("admitted %d > ever blocked %d", len(admitted), len(blockedOrder))
		}
		for i, id := range admitted {
			if blockedOrder[i] != id {
				t.Fatalf("blocked writers resumed out of FIFO order: %v vs %v", admitted, blockedOrder)
			}
		}

		// Conservation within the pipe: accepted == taken + buffered.
		if accepted != gets+p.Len() {
			t.Fatalf("pipe conservation: accepted %d != gets %d + len %d", accepted, gets, p.Len())
		}
		// Conservation at the boundary: every offered sample was accepted
		// or is still blocked.
		if offered != accepted+p.Blocked() {
			t.Fatalf("offer conservation: offered %d != accepted %d + blocked %d",
				offered, accepted, p.Blocked())
		}
		// Wait accounting is monotone and finite.
		if w := p.BlockedWaitTotal(); w < 0 {
			t.Fatalf("negative blocked wait %v", w)
		}
	})
}
