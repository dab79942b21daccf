package faults

import (
	"rocc/internal/procs"
)

// Degrader is the graceful-degradation control loop for one daemon. Every
// DegradePeriod it samples two pressure signals — occupancy of the
// daemon's pipes (buffered plus blocked writers against capacity) and the
// depth of the uplink retry queue — and while either is above its
// watermark it doubles the daemon's sample thinning factor (dropping
// resolution to preserve liveness, up to MaxThinning). When pressure
// clears it halves the factor back toward 1, one step per period.
type Degrader struct {
	inj  *Injector
	d    *procs.PdDaemon
	link *Link // may be nil (no uplink pressure signal)

	clear int // consecutive unpressured ticks (decay hysteresis)

	// ResidencyUS accumulates simulated time spent in degraded mode
	// (thinning factor above 1); Engagements counts entries into it.
	ResidencyUS float64
	Engagements int
}

// AttachDegrader arms the degradation control loop on a daemon. link may
// be nil when the daemon has no resilient uplink.
func (inj *Injector) AttachDegrader(d *procs.PdDaemon, link *Link) *Degrader {
	if !inj.Plan.Resilience.Degrade {
		return nil
	}
	g := &Degrader{inj: inj, d: d, link: link}
	inj.degraders = append(inj.degraders, g)
	inj.Sim.Schedule(inj.Plan.Resilience.DegradePeriod, g.tick)
	return g
}

func (g *Degrader) pressured() bool {
	r := &g.inj.Plan.Resilience
	for _, p := range g.d.Pipes {
		if float64(p.Len()+p.Blocked()) >= r.PipeWatermark*float64(p.Cap()) {
			return true
		}
	}
	return g.link != nil && g.link.Pending() >= r.RetryWatermark
}

func (g *Degrader) tick() {
	r := &g.inj.Plan.Resilience
	if !g.d.Down() { // a crashed daemon keeps its settings frozen
		wasDegraded := g.d.Thinning > 1
		if g.pressured() {
			g.clear = 0
			thin := g.d.Thinning
			if thin < 1 {
				thin = 1
			}
			if thin < r.MaxThinning {
				thin *= 2
				if thin > r.MaxThinning {
					thin = r.MaxThinning
				}
			}
			g.d.Thinning = thin
			if !wasDegraded && g.d.Thinning > 1 {
				g.Engagements++
			}
		} else if g.clear++; g.clear >= 3 {
			// Decay hysteresis: a degraded daemon drains its pipes, so a
			// single pressure-free observation does not mean the overload
			// has passed. Back off only after sustained calm; otherwise
			// the controller oscillates between thinning and congestion.
			if g.d.Thinning > 1 {
				g.d.Thinning /= 2
			}
		}
		if g.d.Thinning > 1 {
			g.ResidencyUS += r.DegradePeriod
		}
		g.d.Wake() // settings changed; there may be drainable work
	}
	g.inj.Sim.Schedule(r.DegradePeriod, g.tick)
}
