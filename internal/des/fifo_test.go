package des

import (
	"testing"
	"testing/quick"
)

// Growing a FIFO whose items wrap around the end of the ring must keep
// them in push order.
func TestFIFOWraparoundAfterGrowth(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	// Move the head into the middle of the initial ring, then fill it so
	// the items wrap before the ring doubles (twice).
	for i := 0; i < 3; i++ {
		q.Push(next)
		next++
	}
	for i := 0; i < 2; i++ {
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d, want %d", got, want)
		}
		want++
	}
	for i := 0; i < 20; i++ {
		q.Push(next)
		next++
	}
	if q.Len() != next-want {
		t.Fatalf("len %d, want %d", q.Len(), next-want)
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d items, pushed %d", want, next)
	}
}

func TestFIFOAtAndClear(t *testing.T) {
	var q FIFO[*int]
	vals := make([]int, 6)
	for i := range vals {
		vals[i] = i
		q.Push(&vals[i])
	}
	q.Pop()
	q.Pop()
	q.Push(&vals[0]) // wraps
	for i, want := range []int{2, 3, 4, 5, 0} {
		if got := **q.At(i); got != want {
			t.Fatalf("At(%d) = %d, want %d", i, got, want)
		}
	}
	*q.At(0) = &vals[5] // At addresses the slot in place
	if got := *q.Pop(); got != 5 {
		t.Fatalf("pop after At write = %d, want 5", got)
	}
	storage := cap(q.buf)
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("len %d after Clear", q.Len())
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a pointer after Clear", i)
		}
	}
	if cap(q.buf) != storage {
		t.Fatal("Clear dropped the ring's storage")
	}
	q.Push(&vals[1])
	if got := *q.Pop(); got != 1 {
		t.Fatalf("pop after Clear = %d, want 1", got)
	}
}

// Popped slots are zeroed, so a drained queue of pointers pins nothing.
func TestFIFOPopZeroesSlot(t *testing.T) {
	var q FIFO[*int]
	v := 1
	q.Push(&v)
	q.Pop()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a popped pointer", i)
		}
	}
}

// Property: any interleaving of Push and Pop matches a plain slice model.
func TestQuickFIFOMatchesSlice(t *testing.T) {
	f := func(ops []bool) bool {
		var q FIFO[int]
		var model []int
		next := 0
		for _, isPush := range ops {
			if isPush {
				q.Push(next)
				model = append(model, next)
				next++
			} else if len(model) > 0 {
				if q.Pop() != model[0] {
					return false
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				return false
			}
			for i, v := range model {
				if *q.At(i) != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	for name, q := range map[string]*FIFO[int]{
		"zero value": {},
		"drained":    func() *FIFO[int] { q := &FIFO[int]{}; q.Push(1); q.Pop(); return q }(),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Pop on an empty FIFO did not panic", name)
				}
			}()
			q.Pop()
		}()
	}
}

func TestFIFOAtOutOfRangePanics(t *testing.T) {
	var q FIFO[int]
	q.Push(1)
	for _, i := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a one-item FIFO did not panic", i)
				}
			}()
			q.At(i)
		}()
	}
}

// A queue that has reached its peak length never allocates again, even
// when it repeatedly drains to empty.
func TestFIFOSteadyStateDoesNotAllocate(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	q.Clear()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state FIFO allocated %.2f objects per cycle", allocs)
	}
}
