package resources

import "unsafe"

// tally accumulates per-owner occupancy time. The owner set is a handful
// of fixed class labels (app, pd, pvmd, other, paradyn), so a linear scan
// over parallel slices beats a map on the per-slice accounting hot path,
// and the structure allocates nothing after its first add. The labels
// are package constants, so a caller almost always passes the very string
// the tally stored: find compares string identity (data pointer and
// length) first and falls back to comparing contents.
type tally struct {
	names []string
	vals  []float64
}

// ownerClasses is the number of owner classes the model charges
// (procs.OwnerApp, OwnerPd, OwnerPvm, OwnerOther, OwnerMain): a tally's
// first add reserves room for all of them, so a CPU or the network meeting
// its owners one by one never regrows its slices.
const ownerClasses = 5

// find returns owner's slot, or -1 if owner has none.
func (t *tally) find(owner string) int {
	p := unsafe.StringData(owner)
	for i, n := range t.names {
		if unsafe.StringData(n) == p && len(n) == len(owner) {
			return i
		}
	}
	for i, n := range t.names {
		if n == owner {
			return i
		}
	}
	return -1
}

// idx returns owner's slot, adding one if needed.
func (t *tally) idx(owner string) int {
	if i := t.find(owner); i >= 0 {
		return i
	}
	if t.names == nil {
		t.names = make([]string, 0, ownerClasses)
		t.vals = make([]float64, 0, ownerClasses)
	}
	t.names = append(t.names, owner)
	t.vals = append(t.vals, 0)
	return len(t.names) - 1
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
func (t *tally) reset() {
	t.names = t.names[:0]
	t.vals = t.vals[:0]
}
