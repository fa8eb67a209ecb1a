package serve

import "sync/atomic"

// stats is the service's hot-path counter block (atomics, no locks).
type stats struct {
	requests       atomic.Int64
	cacheHits      atomic.Int64
	coalesced      atomic.Int64
	rejected       atomic.Int64
	expired        atomic.Int64
	abandoned      atomic.Int64
	shed           atomic.Int64
	sweeps         atomic.Int64
	batchedQueries atomic.Int64
	engineRuns     atomic.Int64
	queueWaits     atomic.Int64
	queueWaitNs    atomic.Int64

	breakerRejected atomic.Int64
	watchdogFired   atomic.Int64
	panicsRecovered atomic.Int64
	enginesRetired  atomic.Int64

	graphLoads       atomic.Int64
	graphLoadsFailed atomic.Int64
	graphUnloads     atomic.Int64
	graphEvictions   atomic.Int64

	indexBuilds       atomic.Int64
	indexBuildsFailed atomic.Int64
	indexHits         atomic.Int64
	indexFallbacks    atomic.Int64

	tuneCalibrations atomic.Int64

	scrubPasses      atomic.Int64
	scrubCorruptions atomic.Int64
	scrubRecoveries  atomic.Int64
}

// StatsSnapshot is a point-in-time copy of the service counters.
type StatsSnapshot struct {
	// Requests counts every Query call; CacheHits the ones answered from
	// the LRU; Coalesced the ones that attached to an already-in-flight
	// traversal of the same source.
	Requests  int64 `json:"requests"`
	CacheHits int64 `json:"cache_hits"`
	Coalesced int64 `json:"coalesced"`
	// Rejected counts admission failures (overload, breaker, draining);
	// Expired counts waiters whose own deadline fired before their
	// traversal; Abandoned the queued flights released early because
	// their last waiter left; Shed the queued flights dropped
	// oldest-first to admit fresh work under overload.
	Rejected  int64 `json:"rejected"`
	Expired   int64 `json:"expired"`
	Abandoned int64 `json:"abandoned"`
	Shed      int64 `json:"shed"`
	// Sweeps counts multi-source batch executions; BatchedQueries the
	// queries they served; EngineRuns the per-source fallback runs.
	Sweeps         int64 `json:"sweeps"`
	BatchedQueries int64 `json:"batched_queries"`
	EngineRuns     int64 `json:"engine_runs"`
	// QueueWaits counts the flights the scheduler has started and
	// QueueWaitNs sums their enqueue-to-start waits (both monotone), so
	// their quotient over a window is how much of a miss was queueing
	// for an engine slot or a sweep. EnginesBusy is the per-graph gauge
	// of single-source runs holding a slot right now (at most PoolSize).
	QueueWaits  int64          `json:"queue_waits"`
	QueueWaitNs int64          `json:"queue_wait_ns"`
	EnginesBusy map[string]int `json:"engines_busy,omitempty"`
	// Containment: BreakerRejected counts queries failed fast by an open
	// breaker; WatchdogFired the runs hard-cancelled past their
	// wall-clock budget; PanicsRecovered the traversals that died
	// mid-run and were converted to typed errors; EnginesRetired the
	// poisoned engines quarantined out of their pools.
	BreakerRejected int64 `json:"breaker_rejected"`
	WatchdogFired   int64 `json:"watchdog_fired"`
	PanicsRecovered int64 `json:"panics_recovered"`
	EnginesRetired  int64 `json:"engines_retired"`
	// Lifecycle: loads/unloads/evictions of resident graphs.
	GraphLoads       int64 `json:"graph_loads"`
	GraphLoadsFailed int64 `json:"graph_loads_failed"`
	GraphUnloads     int64 `json:"graph_unloads"`
	GraphEvictions   int64 `json:"graph_evictions"`
	ResidentBytes    int64 `json:"resident_bytes"`
	// ResidentMappedBytes is the portion of ResidentBytes that aliases
	// read-only file mappings (reclaimable page cache) rather than heap.
	ResidentMappedBytes int64 `json:"resident_mapped_bytes"`
	// Distance-oracle tier: IndexBuilds counts build jobs started (and
	// IndexBuildsFailed the ones that errored or panicked); IndexHits
	// counts distance-only queries fully answered by a label join with
	// no traversal; IndexFallbacks the ones the oracle could not certify
	// that fell back to an exact BFS. Indexes is the per-graph state.
	IndexBuilds       int64         `json:"index_builds,omitempty"`
	IndexBuildsFailed int64         `json:"index_builds_failed,omitempty"`
	IndexHits         int64         `json:"index_hits,omitempty"`
	IndexFallbacks    int64         `json:"index_fallbacks,omitempty"`
	Indexes           []IndexStatus `json:"indexes,omitempty"`
	// Auto-tuning: TuneCalibrations counts calibration passes run by
	// this process (a journaled-profile reuse does NOT count — that is
	// the point of journaling); Tunings is the per-graph profile plus
	// predicted-vs-measured MTEPS.
	TuneCalibrations int64        `json:"tune_calibrations,omitempty"`
	Tunings          []TuneStatus `json:"tunings,omitempty"`
	// Integrity scrubbing: ScrubPasses counts completed scrub sweeps;
	// ScrubCorruptions the artifacts that failed re-verification (each
	// quarantine or index-drop transition counts once, however many
	// passes the fault persists); ScrubRecoveries the graphs restored to
	// serving (remounted from disk, or re-verified in place after the
	// underlying file healed).
	ScrubPasses      int64 `json:"scrub_passes,omitempty"`
	ScrubCorruptions int64 `json:"scrub_corruptions,omitempty"`
	ScrubRecoveries  int64 `json:"scrub_recoveries,omitempty"`
	// QueueDepth is the current admitted-but-unresolved count.
	QueueDepth int  `json:"queue_depth"`
	Draining   bool `json:"draining"`
	// Durable control plane (zero values in stateless mode): Recovering
	// is true until startup replay completes; JournalSeq is the last
	// durable record; JournalRecords the journal length since the last
	// snapshot (what a restart replays); SnapshotSeq the seq the
	// snapshot covers; RecoveryMS how long the last Recover took.
	Recovering     bool   `json:"recovering,omitempty"`
	JournalSeq     uint64 `json:"journal_seq,omitempty"`
	JournalRecords int    `json:"journal_records,omitempty"`
	SnapshotSeq    uint64 `json:"snapshot_seq,omitempty"`
	RecoveryMS     int64  `json:"recovery_ms,omitempty"`
	// Durability is "durable" while journal appends succeed, "degraded"
	// after a disk fault (appends refused, queries still exact) until a
	// probe append restores it; empty in stateless mode. DegradedReason
	// carries the fault; Degradations counts lifetime transitions.
	// CompactionError is the last snapshot compaction's failure, cleared
	// by the next successful one (appends stay durable meanwhile).
	Durability      string `json:"durability,omitempty"`
	DegradedReason  string `json:"degraded_reason,omitempty"`
	Degradations    int64  `json:"degradations,omitempty"`
	CompactionError string `json:"compaction_error,omitempty"`
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() StatsSnapshot {
	s.mu.Lock()
	manifest := s.manifest
	mapped := s.residentMapped
	busy := make(map[string]int, len(s.graphs))
	for name, gs := range s.graphs {
		busy[name] = gs.running
	}
	s.mu.Unlock()
	snap := StatsSnapshot{
		Requests:            s.stats.requests.Load(),
		CacheHits:           s.stats.cacheHits.Load(),
		Coalesced:           s.stats.coalesced.Load(),
		Rejected:            s.stats.rejected.Load(),
		Expired:             s.stats.expired.Load(),
		Abandoned:           s.stats.abandoned.Load(),
		Shed:                s.stats.shed.Load(),
		Sweeps:              s.stats.sweeps.Load(),
		BatchedQueries:      s.stats.batchedQueries.Load(),
		EngineRuns:          s.stats.engineRuns.Load(),
		QueueWaits:          s.stats.queueWaits.Load(),
		QueueWaitNs:         s.stats.queueWaitNs.Load(),
		EnginesBusy:         busy,
		BreakerRejected:     s.stats.breakerRejected.Load(),
		WatchdogFired:       s.stats.watchdogFired.Load(),
		PanicsRecovered:     s.stats.panicsRecovered.Load(),
		EnginesRetired:      s.stats.enginesRetired.Load(),
		GraphLoads:          s.stats.graphLoads.Load(),
		GraphLoadsFailed:    s.stats.graphLoadsFailed.Load(),
		GraphUnloads:        s.stats.graphUnloads.Load(),
		GraphEvictions:      s.stats.graphEvictions.Load(),
		IndexBuilds:         s.stats.indexBuilds.Load(),
		IndexBuildsFailed:   s.stats.indexBuildsFailed.Load(),
		IndexHits:           s.stats.indexHits.Load(),
		IndexFallbacks:      s.stats.indexFallbacks.Load(),
		Indexes:             s.IndexStatuses(),
		TuneCalibrations:    s.stats.tuneCalibrations.Load(),
		ScrubPasses:         s.stats.scrubPasses.Load(),
		ScrubCorruptions:    s.stats.scrubCorruptions.Load(),
		ScrubRecoveries:     s.stats.scrubRecoveries.Load(),
		Tunings:             s.TuneStatuses(),
		ResidentBytes:       s.ResidentBytes(),
		ResidentMappedBytes: mapped,
		QueueDepth:          s.QueueDepth(),
		Draining:            s.Draining(),
		Recovering:          s.recovering.Load(),
		RecoveryMS:          s.recoveryDur.Load() / 1e6,
	}
	if manifest != nil {
		ms := manifest.Stats()
		snap.JournalSeq = ms.Seq
		snap.JournalRecords = ms.Records
		snap.SnapshotSeq = ms.SnapshotSeq
		snap.Durability = ms.Durability
		snap.DegradedReason = ms.DegradedReason
		snap.Degradations = ms.Degradations
		snap.CompactionError = ms.CompactionError
	}
	return snap
}
