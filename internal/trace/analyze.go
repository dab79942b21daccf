package trace

import (
	"errors"
	"sort"
)

// ClassTotals aggregates occupancy for one process class within a trace —
// the per-class execution statistics the measurement experiments of
// Section 5 derive from the AIX trace files.
type ClassTotals struct {
	Class     string
	CPUTimeUS float64
	NetTimeUS float64
	CPUCount  int
	NetCount  int
	FirstUS   float64
	LastEndUS float64
	PIDs      []int
}

// Analysis is the product of Analyze.
type Analysis struct {
	// Totals per class, ordered per Classes (known classes first).
	Totals []ClassTotals
	// DurationUS is the observed trace span (max record end time).
	DurationUS float64
	// Records is the total record count.
	Records int
}

// TotalsFor returns the totals of one class, if present.
func (a Analysis) TotalsFor(class string) (ClassTotals, bool) {
	for _, t := range a.Totals {
		if t.Class == class {
			return t, true
		}
	}
	return ClassTotals{}, false
}

// CPUShare returns the fraction of observed trace time the class occupied
// the CPU (0 when the trace is empty).
func (a Analysis) CPUShare(class string) float64 {
	t, ok := a.TotalsFor(class)
	if !ok || a.DurationUS <= 0 {
		return 0
	}
	return t.CPUTimeUS / a.DurationUS
}

// Analyze computes per-class occupancy totals from a trace.
func Analyze(recs []Record) (Analysis, error) {
	if len(recs) == 0 {
		return Analysis{}, errors.New("trace: empty trace")
	}
	byClass := map[string]*ClassTotals{}
	pidSeen := map[string]map[int]bool{}
	var an Analysis
	an.Records = len(recs)
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return Analysis{}, err
		}
		t := byClass[r.Process]
		if t == nil {
			t = &ClassTotals{Class: r.Process, FirstUS: r.StartUS}
			byClass[r.Process] = t
			pidSeen[r.Process] = map[int]bool{}
		}
		switch r.Resource {
		case CPU:
			t.CPUTimeUS += r.DurationUS
			t.CPUCount++
		case Network:
			t.NetTimeUS += r.DurationUS
			t.NetCount++
		}
		if r.StartUS < t.FirstUS {
			t.FirstUS = r.StartUS
		}
		if end := r.StartUS + r.DurationUS; end > t.LastEndUS {
			t.LastEndUS = end
		}
		if !pidSeen[r.Process][r.PID] {
			pidSeen[r.Process][r.PID] = true
			t.PIDs = append(t.PIDs, r.PID)
		}
		if end := r.StartUS + r.DurationUS; end > an.DurationUS {
			an.DurationUS = end
		}
	}
	// Stable class ordering.
	var names []string
	for name := range byClass {
		names = append(names, name)
	}
	sort.Strings(names)
	ordered := make([]string, 0, len(names))
	for _, known := range Classes {
		for _, name := range names {
			if name == known {
				ordered = append(ordered, name)
			}
		}
	}
	for _, name := range names {
		found := false
		for _, o := range ordered {
			if o == name {
				found = true
			}
		}
		if !found {
			ordered = append(ordered, name)
		}
	}
	for _, name := range ordered {
		t := byClass[name]
		sort.Ints(t.PIDs)
		an.Totals = append(an.Totals, *t)
	}
	return an, nil
}

// Timeline bins a trace's resource occupancy into fixed windows: result
// [class][window] = occupied fraction of the window, and midsSec[window]
// = the window's midpoint in seconds. Occupancy spanning a window
// boundary is split proportionally.
func Timeline(recs []Record, res Resource, windows int) (classes []string, midsSec []float64, shares [][]float64, err error) {
	if windows < 1 {
		return nil, nil, nil, errors.New("trace: need at least one window")
	}
	an, err := Analyze(recs)
	if err != nil {
		return nil, nil, nil, err
	}
	width := an.DurationUS / float64(windows)
	if width <= 0 {
		return nil, nil, nil, errors.New("trace: zero-duration trace")
	}
	midsSec = make([]float64, windows)
	for i := range midsSec {
		midsSec[i] = (float64(i) + 0.5) * width / 1e6
	}
	index := map[string]int{}
	for _, t := range an.Totals {
		index[t.Class] = len(classes)
		classes = append(classes, t.Class)
	}
	shares = make([][]float64, len(classes))
	for i := range shares {
		shares[i] = make([]float64, windows)
	}
	for _, r := range recs {
		if r.Resource != res {
			continue
		}
		ci := index[r.Process]
		start, end := r.StartUS, r.StartUS+r.DurationUS
		for w := int(start / width); w < windows; w++ {
			wStart, wEnd := float64(w)*width, float64(w+1)*width
			if wStart >= end {
				break
			}
			lo, hi := start, end
			if lo < wStart {
				lo = wStart
			}
			if hi > wEnd {
				hi = wEnd
			}
			if hi > lo {
				shares[ci][w] += (hi - lo) / width
			}
		}
	}
	return classes, midsSec, shares, nil
}
