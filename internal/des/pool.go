package des

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Process-wide array pools. A finished run's queue rings and calendar
// arrays go back here (FIFO.Release, BucketCalendar.Release), and the next
// run — in any goroutine — grows its own from them, so a sweep of many
// short runs stops handing the garbage collector a fresh set of arrays
// per run. The pools hold storage only: an array's contents are cleared
// before it goes in, so no value crosses from one run to the next.
//
// Each element type has one sync.Pool per power-of-two length. A pool
// stores the array's first-element pointer (unsafe.SliceData), which an
// interface holds without allocating; the length is the pool's own, so
// Get rebuilds the slice with unsafe.Slice and neither side allocates.

// sizedPools is one element type's pools, indexed by log2 of the length.
type sizedPools [bits.UintSize]sync.Pool

// arrayPools maps an element type, keyed by a typed nil *T, to its
// *sizedPools.
var arrayPools sync.Map

func poolsFor[T any]() *sizedPools {
	key := any((*T)(nil))
	if p, ok := arrayPools.Load(key); ok {
		return p.(*sizedPools)
	}
	p, _ := arrayPools.LoadOrStore(key, new(sizedPools))
	return p.(*sizedPools)
}

// getArray returns a zeroed array of size elements, size a power of two,
// from the pool when it holds one.
func getArray[T any](size int) []T {
	if p, _ := poolsFor[T]()[bits.TrailingZeros(uint(size))].Get().(*T); p != nil {
		return unsafe.Slice(p, size)
	}
	return make([]T, size)
}

// putArray clears buf, whose length must be a power of two, and gives it
// to the pool. The caller must hold no other reference to it. An empty
// buf is ignored.
func putArray[T any](buf []T) {
	if len(buf) == 0 {
		return
	}
	clear(buf)
	poolsFor[T]()[bits.TrailingZeros(uint(len(buf)))].Put(unsafe.SliceData(buf))
}
