package resources

import (
	"fmt"
	"unsafe"
)

// tally accumulates per-owner occupancy time. The owner set is a handful
// of fixed class labels (app, pd, pvmd, other, paradyn), so a linear scan
// over parallel arrays beats a map on the per-slice accounting hot path.
// The arrays live inside the tally, and so inside its CPU or network:
// accounting never allocates. The labels are package constants, so a
// caller almost always passes the very string the tally stored: find
// compares string identity (data pointer and length) first and falls back
// to comparing contents.
type tally struct {
	names [ownerClasses]string
	vals  [ownerClasses]float64
	n     int
}

// ownerClasses is the number of owner classes the model charges
// (procs.OwnerApp, OwnerPd, OwnerPvm, OwnerOther, OwnerMain), and so the
// number of owners a tally holds: node 0 of a shared host meets all five.
// No test charges more distinct owners to one resource.
const ownerClasses = 5

// owners returns the owners met so far, in order of first add.
func (t *tally) owners() []string { return t.names[:t.n] }

// find returns owner's slot, or -1 if owner has none.
func (t *tally) find(owner string) int {
	p := unsafe.StringData(owner)
	for i, n := range t.owners() {
		if unsafe.StringData(n) == p && len(n) == len(owner) {
			return i
		}
	}
	for i, n := range t.owners() {
		if n == owner {
			return i
		}
	}
	return -1
}

// idx returns owner's slot, adding one if needed. It panics on an owner
// past the ownerClasses the tally has room for.
func (t *tally) idx(owner string) int {
	if i := t.find(owner); i >= 0 {
		return i
	}
	if t.n == ownerClasses {
		panic(fmt.Sprintf("resources: owner %q is one more than the %d owner classes a resource accounts", owner, ownerClasses))
	}
	i := t.n
	t.names[i], t.vals[i] = owner, 0
	t.n++
	return i
}

func (t *tally) add(owner string, v float64) {
	t.vals[t.idx(owner)] += v
}

func (t *tally) get(owner string) float64 {
	if i := t.find(owner); i >= 0 {
		return t.vals[i]
	}
	return 0
}

// reset forgets all owners (matching the fresh-map semantics the
// accounting reset had when this was a map).
func (t *tally) reset() { *t = tally{} }
