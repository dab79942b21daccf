package core

import (
	"sync"

	"rocc/internal/procs"
	"rocc/internal/resources"
	"rocc/internal/rng"
)

// store holds, by value, the records New builds for one model: the CPUs,
// the network, the pipes, the daemons, the main process, the application
// processes, the background sources and their random streams, plus the
// model's pointer views of them. New takes a store from storePool and
// sizes it to the config before building any record, so no slice moves
// while the model holds pointers into it. Simulate's release clears every
// slice to its full capacity and gives the store back, so no value crosses
// from one run to the next and the next New on that worker builds into
// the same memory. A model that is never released leaves its store to the
// collector. Children spawned mid-run (Detailed.SpawnPeriod) are allocated
// outside the store.
type store struct {
	cpus    []resources.CPU
	pipes   []resources.Pipe
	daemons []procs.PdDaemon
	apps    []procs.AppProcess
	sources []procs.OpenSource
	streams []rng.Stream
	net     resources.Network
	main    procs.MainProcess
	barrier procs.Barrier

	cpuPtrs     []*resources.CPU
	pipePtrs    []*resources.Pipe
	daemonPtrs  []*procs.PdDaemon
	appPtrs     []*procs.AppProcess
	sourcePtrs  []*procs.OpenSource
	nodeDaemons [][]*procs.PdDaemon
	nodeProcs   []int

	nextStream int // the next stream that stream hands out
}

var storePool = sync.Pool{New: func() any { return new(store) }}

// fit returns buf resliced to n records, allocating only when buf has too
// little capacity. A released store's records are all zero.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// size makes room for the records of a model with the given numbers of
// machines (one per node; one for SMP), CPUs, daemons, application
// processes and background sources. Every record gets one stream, plus
// the master stream and the main process's.
func (s *store) size(machines, cpus, daemons, apps, sources int) {
	s.cpus = fit(s.cpus, cpus)
	s.pipes = fit(s.pipes, apps)
	s.daemons = fit(s.daemons, daemons)
	s.apps = fit(s.apps, apps)
	s.sources = fit(s.sources, sources)
	s.streams = fit(s.streams, 2+daemons+apps+sources)
	s.cpuPtrs = fit(s.cpuPtrs, machines)
	s.pipePtrs = fit(s.pipePtrs, apps)
	s.daemonPtrs = fit(s.daemonPtrs, daemons)
	s.appPtrs = fit(s.appPtrs, apps)
	s.sourcePtrs = fit(s.sourcePtrs, sources)
	s.nodeDaemons = fit(s.nodeDaemons, machines)
	s.nodeProcs = fit(s.nodeProcs, machines)
	s.nextStream = 1 // streams[0] is the master stream
}

// stream returns the store's next stream, seeded as parent.Derive(id)
// would seed it.
func (s *store) stream(parent *rng.Stream, id uint64) *rng.Stream {
	st := &s.streams[s.nextStream]
	s.nextStream++
	parent.DeriveInto(st, id)
	return st
}

// clear zeroes every record and pointer the store holds, to each slice's
// full capacity, so that the pool keeps nothing of the run alive.
func (s *store) clear() {
	clear(s.cpus[:cap(s.cpus)])
	clear(s.pipes[:cap(s.pipes)])
	clear(s.daemons[:cap(s.daemons)])
	clear(s.apps[:cap(s.apps)])
	clear(s.sources[:cap(s.sources)])
	clear(s.streams[:cap(s.streams)])
	s.net, s.main, s.barrier = resources.Network{}, procs.MainProcess{}, procs.Barrier{}
	clear(s.cpuPtrs[:cap(s.cpuPtrs)])
	clear(s.pipePtrs[:cap(s.pipePtrs)])
	clear(s.daemonPtrs[:cap(s.daemonPtrs)])
	clear(s.appPtrs[:cap(s.appPtrs)])
	clear(s.sourcePtrs[:cap(s.sourcePtrs)])
	clear(s.nodeDaemons[:cap(s.nodeDaemons)])
	clear(s.nodeProcs[:cap(s.nodeProcs)])
}
