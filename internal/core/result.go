package core

import (
	"rocc/internal/forward"
	"rocc/internal/obs/prov"
	"rocc/internal/procs"
	"rocc/internal/report"
)

// Result holds the metrics of one simulation run. Utilizations are
// percentages; times are seconds; latencies are seconds per sample.
// These are the quantities plotted in Figures 17-28 and tabulated in
// Tables 4-6 of the paper.
type Result struct {
	DurationSec float64

	// Direct IS overhead (local and global detail, §2.1 Metrics).
	PdCPUTimePerNodeSec float64 // daemon CPU time averaged over nodes
	PdCPUUtilPct        float64 // daemon CPU utilization per node
	MainCPUTimeSec      float64 // main Paradyn process CPU time
	MainCPUUtilPct      float64 // utilization of the CPU hosting main
	ISCPUUtilPct        float64 // daemons + main, per node (SMP metric)

	// Application progress.
	AppCPUTimePerNodeSec float64
	AppCPUUtilPct        float64
	AppIterations        int

	// Background load.
	PvmCPUUtilPct   float64
	OtherCPUUtilPct float64

	// Interconnect.
	NetUtilPct   float64 // all owners
	PdNetUtilPct float64 // instrumentation traffic only

	// Data forwarding performance.
	MonitoringLatencySec    float64 // mean generation-to-receipt per sample
	MonitoringLatencyP95Sec float64 // 95th percentile
	MonitoringLatencyMaxSec float64 // worst case observed
	// P50/P95/P99 are read from the main process's latency histogram
	// (eighth-octave buckets, interpolated; procs.NewLatencyHistogram).
	MonitoringLatencyP50Sec float64 // median
	MonitoringLatencyP99Sec float64 // 99th percentile
	ForwardLatencySec       float64 // mean transport delay (newest sample age)
	ThroughputPerSec        float64 // samples received at main per second
	PdThroughputPerSec      float64 // samples forwarded by daemons per second

	// Blocked-writer accounting.
	PipeBlockedWaitSec float64 // cumulative time writers spent blocked

	// Fault injection and resilience (populated when Cfg.Faults is
	// active; zero otherwise).
	FaultLossInjected     int     // uplink deliveries destroyed in transit
	FaultDupInjected      int     // duplicate deliveries injected
	FaultDelayInjected    int     // deliveries given an extra transit delay
	FaultAcksLost         int     // acknowledgements destroyed
	MsgLossRatePct        float64 // injected losses per delivery attempt
	MsgDupRatePct         float64 // injected duplicates per forwarded message
	Retransmits           int     // retransmission attempts
	RetransmitGiveUps     int     // messages abandoned after the retry budget
	SamplesLostForwarding int     // samples lost for good on uplinks
	DupMessagesDiscarded  int     // duplicates suppressed at receivers
	RecoveredMessages     int     // messages that needed a retransmission
	RecoveryMeanSec       float64 // mean first-send-to-ack time of recovered
	RecoveryMaxSec        float64
	Crashes               int     // daemon crash events
	CrashDowntimeSec      float64 // total daemon downtime
	CrashLostSamples      int     // samples lost to crashed daemon state
	PipeSqueezes          int     // pipe capacity-squeeze windows opened
	SamplesThinned        int     // samples dropped by degradation thinning
	DegradedResidencySec  float64 // time daemons spent in degraded mode
	DegradeEngagements    int     // entries into degraded mode

	// Adaptive forwarding-strategy telemetry (populated only when the run
	// used forward.AdaptiveBFStrategy; zero — and omitted from JSON — for
	// CF/fixed-BF runs, keeping legacy output byte-identical).
	AdaptiveFinalBatchMean float64 `json:",omitempty"` // mean final batch target across daemons
	AdaptiveFinalBatchMin  int     `json:",omitempty"` // smallest final target
	AdaptiveFinalBatchMax  int     `json:",omitempty"` // largest final target
	AdaptiveAdjustments    int     `json:",omitempty"` // total control decisions taken

	// LatencyStages is the per-stage decomposition of the monitoring
	// latency (internal/obs/prov), populated only when EnableObservability
	// ran with Provenance — omitted from JSON otherwise, keeping plain
	// runs byte-identical.
	LatencyStages []StageLatency `json:",omitempty"`

	SamplesGenerated int
	SamplesReceived  int
	// WarmupCarryover counts samples generated during the warmup period
	// but still buffered or in flight when measurement began; they may be
	// received (and counted in SamplesReceived) during the measured
	// window, so SamplesReceived <= SamplesGenerated + WarmupCarryover.
	WarmupCarryover   int
	MessagesReceived  int
	MessagesForwarded int
	MessagesMerged    int
	BlockedPuts       int
	BarrierReleases   int

	// Main's backlog, which no latency or throughput field shows: both
	// count a message on arrival. MainInboxPeak is the most messages
	// waiting at main during the measured window, MainInboxFinal the
	// number still waiting when the run ended.
	MainInboxPeak  int
	MainInboxFinal int
}

// StageLatency is one stage of the per-sample latency decomposition:
// where the generation→delivery delay accrued, aggregated over all
// delivered samples. Stages appear in path order (pipe-wait,
// batch-residency, daemon-service, network-transit, merge, main-receipt)
// and their SharePct values sum to 100 (when anything was delivered).
type StageLatency struct {
	Stage    string
	MeanSec  float64
	P50Sec   float64
	P95Sec   float64
	P99Sec   float64
	SharePct float64
}

// StageLatencies is the provenance engine's decomposition in Result form
// (microseconds to seconds), in stage order.
func StageLatencies(eng *prov.Engine) []StageLatency {
	var out []StageLatency
	for _, s := range eng.Stages() {
		out = append(out, StageLatency{
			Stage:    s.Stage,
			MeanSec:  s.MeanUS / 1e6,
			P50Sec:   s.P50US / 1e6,
			P95Sec:   s.P95US / 1e6,
			P99Sec:   s.P99US / 1e6,
			SharePct: s.SharePct,
		})
	}
	return out
}

// StageRows converts a decomposition to waterfall rows (seconds to
// microseconds): the one conversion every waterfall renders through, so
// a run's live rows and the rows obs.ReplayChrome recovers from its trace
// print the same bytes.
func StageRows(stages []StageLatency) []report.StageRow {
	rows := make([]report.StageRow, 0, len(stages))
	for _, s := range stages {
		rows = append(rows, report.StageRow{
			Stage:    s.Stage,
			MeanUS:   s.MeanSec * 1e6,
			P50US:    s.P50Sec * 1e6,
			P95US:    s.P95Sec * 1e6,
			P99US:    s.P99Sec * 1e6,
			SharePct: s.SharePct,
		})
	}
	return rows
}

// collect computes the Result from the model's resource accounting.
func (m *Model) collect() Result {
	cfg := m.Cfg
	durUS := cfg.Duration
	durSec := durUS / 1e6
	res := Result{DurationSec: durSec}

	nodes := float64(cfg.Nodes)
	// Total CPU capacity per "node": for SMP the pool has cfg.Nodes cores
	// in NodeCPUs[0], so summing busy time and dividing by nodes*duration
	// is uniform across architectures.
	var pdBusy, appBusy, pvmBusy, otherBusy float64
	for _, cpu := range m.NodeCPUs {
		pdBusy += cpu.Busy(procs.OwnerPd)
		appBusy += cpu.Busy(procs.OwnerApp)
		pvmBusy += cpu.Busy(procs.OwnerPvm)
		otherBusy += cpu.Busy(procs.OwnerOther)
	}
	mainBusy := m.HostCPU.Busy(procs.OwnerMain)

	res.PdCPUTimePerNodeSec = pdBusy / nodes / 1e6
	res.PdCPUUtilPct = float64(pdBusy / (nodes * durUS) * 100)
	res.MainCPUTimeSec = mainBusy / 1e6
	if cfg.Arch == SMP {
		res.MainCPUUtilPct = mainBusy / (nodes * durUS) * 100
		res.ISCPUUtilPct = (pdBusy + mainBusy) / (nodes * durUS) * 100
	} else {
		res.MainCPUUtilPct = mainBusy / durUS * 100
		res.ISCPUUtilPct = res.PdCPUUtilPct + float64(mainBusy/(nodes*durUS)*100)
	}
	res.AppCPUTimePerNodeSec = appBusy / nodes / 1e6
	res.AppCPUUtilPct = appBusy / (nodes * durUS) * 100
	res.PvmCPUUtilPct = pvmBusy / (nodes * durUS) * 100
	res.OtherCPUUtilPct = otherBusy / (nodes * durUS) * 100

	res.NetUtilPct = m.Net.BusyTotal() / durUS * 100
	res.PdNetUtilPct = m.Net.Busy(procs.OwnerPd) / durUS * 100

	res.MonitoringLatencySec = m.Main.Latency.Mean() / 1e6
	lat := m.Main.Latencies
	res.MonitoringLatencyP50Sec = lat.Quantile(0.50) / 1e6
	res.MonitoringLatencyP95Sec = lat.Quantile(0.95) / 1e6
	res.MonitoringLatencyP99Sec = lat.Quantile(0.99) / 1e6
	res.MonitoringLatencyMaxSec = lat.Max() / 1e6
	if m.prov != nil {
		res.LatencyStages = StageLatencies(m.prov)
	}
	res.ForwardLatencySec = m.Main.ForwardLatency.Mean() / 1e6
	res.ThroughputPerSec = float64(m.Main.SamplesReceived) / durSec

	for _, a := range m.Apps {
		res.SamplesGenerated += a.Generated
		res.BlockedPuts += a.BlockedPuts
		res.AppIterations += a.Iterations
	}
	var pdSamples int
	for _, d := range m.Daemons {
		pdSamples += d.SamplesCollected // distinct samples, excluding relays
		res.MessagesForwarded += d.MessagesForwarded
		res.MessagesMerged += d.MessagesMerged
		res.SamplesThinned += d.SamplesThinned
		res.CrashLostSamples += d.CrashLostSamples
		for _, p := range d.Pipes {
			res.PipeBlockedWaitSec += p.BlockedWaitTotal() / 1e6
		}
	}
	res.PdThroughputPerSec = float64(pdSamples) / durSec

	var adaptiveDaemons int
	for _, d := range m.Daemons {
		ab, ok := d.Strategy.(*forward.AdaptiveBFStrategy)
		if !ok {
			continue
		}
		t := ab.Target()
		if adaptiveDaemons == 0 {
			res.AdaptiveFinalBatchMin, res.AdaptiveFinalBatchMax = t, t
		} else {
			if t < res.AdaptiveFinalBatchMin {
				res.AdaptiveFinalBatchMin = t
			}
			if t > res.AdaptiveFinalBatchMax {
				res.AdaptiveFinalBatchMax = t
			}
		}
		res.AdaptiveFinalBatchMean += float64(t)
		res.AdaptiveAdjustments += len(ab.Adjustments())
		adaptiveDaemons++
	}
	if adaptiveDaemons > 0 {
		res.AdaptiveFinalBatchMean /= float64(adaptiveDaemons)
	}

	if m.Inj != nil {
		t := m.Inj.Totals()
		res.FaultLossInjected = t.LossInjected
		res.FaultDupInjected = t.DupInjected
		res.FaultDelayInjected = t.DelayInjected
		res.FaultAcksLost = t.AcksLost
		res.Retransmits = t.Retransmits
		res.RetransmitGiveUps = t.GiveUps
		res.SamplesLostForwarding = t.SamplesLostForwarding
		res.DupMessagesDiscarded = t.DupMessagesDiscarded
		res.RecoveredMessages = t.Recovered
		res.RecoveryMeanSec = t.RecoveryMeanUS / 1e6
		res.RecoveryMaxSec = t.RecoveryMaxUS / 1e6
		res.Crashes = t.Crashes
		res.CrashDowntimeSec = t.DowntimeUS / 1e6
		res.PipeSqueezes = t.Squeezes
		res.DegradedResidencySec = t.DegradedResidencyUS / 1e6
		res.DegradeEngagements = t.DegradeEngagements
		if attempts := res.MessagesForwarded + t.Retransmits; attempts > 0 {
			res.MsgLossRatePct = float64(t.LossInjected) / float64(attempts) * 100
		}
		if res.MessagesForwarded > 0 {
			res.MsgDupRatePct = float64(t.DupInjected) / float64(res.MessagesForwarded) * 100
		}
	}

	res.SamplesReceived = m.Main.SamplesReceived
	res.WarmupCarryover = m.warmupCarryover
	res.MessagesReceived = m.Main.MessagesReceived
	res.MainInboxPeak = m.Main.InboxPeak
	res.MainInboxFinal = m.Main.Inbox
	if m.Barrier != nil {
		res.BarrierReleases = m.Barrier.Releases
	}
	return res
}
