package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
)

// EngineStats is the engine-level slice of a Metrics snapshot.
type EngineStats struct {
	// Selects counts executed SELECT statements (including callback-
	// session queries issued by cartridge code).
	Selects int64
	// TracedQueries counts SELECTs that ran with a QueryTrace attached
	// (EXPLAIN ANALYZE, QueryTraced, or a slow-query hook).
	TracedQueries int64
	// SlowQueries counts traces handed to the slow-query hook.
	SlowQueries int64
	// AdmitWaits / AdmitWaitNanos count writer-admission acquisitions and
	// the cumulative wall time spent waiting to be admitted (shared for
	// ordinary DML, exclusive for DDL; see DB.admission).
	AdmitWaits     int64
	AdmitWaitNanos int64
	// MutWaits / MutWaitNanos count mutation-window entries and the
	// cumulative wall time spent waiting for the window (see DB.mutMu).
	MutWaits     int64
	MutWaitNanos int64
	// FetchCalls counts ODCIIndexFetch interface crossings observed by
	// domain scans (same counter as DB.FetchCalls).
	FetchCalls int64
	// BgCheckpoints counts checkpoints completed by the background
	// checkpointer; BgCheckpointSkips counts its attempts that were
	// refused (a writer was admitted) or failed.
	BgCheckpoints     int64
	BgCheckpointSkips int64
}

// WorkspaceStats is the scan-context workspace slice of a Metrics
// snapshot (§2.2.3 return-handle transport).
type WorkspaceStats struct {
	Live      int // handles currently parked (nonzero implies a leak at rest)
	HighWater int // maximum simultaneous handles
}

// Metrics is a full engine observability snapshot: every layer's
// counters in one inert struct. Collect it with DB.Metrics.
type Metrics struct {
	Pager storage.Stats
	// PagerShards is the per-shard buffer-pool breakdown (fetch/hit
	// counters per shard latch): skew across entries exposes a hot
	// shard that the aggregate hit rate would hide.
	PagerShards []storage.ShardStats
	Txn         txn.Stats
	Planner     obs.PlannerSnapshot
	ODCI        obs.ODCISnapshot
	Engine      EngineStats
	Exec        obs.ExecSnapshot
	Workspace   WorkspaceStats
	// CommitGroups is the distribution of commits acknowledged per shared
	// fsync (group-commit batch sizes). Mean() > 1 means fsyncs are being
	// shared.
	CommitGroups obs.HistogramSnapshot
	// Waits is the wait-event table: per-class blocked-time counts,
	// totals and maxima, plus the all-class duration histogram.
	Waits obs.WaitSnapshot
	// Conflicts counts write-conflict aborts, broken down per table.
	Conflicts obs.ConflictSnapshot
	// FlightEvents is the total number of events the flight recorder has
	// ever seen (a liveness gauge — the ring itself is read via
	// DB.FlightRecorder).
	FlightEvents int64
}

// Metrics snapshots every observability counter in the database.
func (db *DB) Metrics() Metrics {
	live, high := db.ws.Stats()
	waits := db.waits.Snapshot()
	admShared := waits.Classes[obs.WaitAdmissionShared.String()]
	admExcl := waits.Classes[obs.WaitAdmissionExclusive.String()]
	window := waits.Classes[obs.WaitMutationWindow.String()]
	var bgDone, bgSkip int64
	if db.ckpt != nil {
		bgDone = db.ckpt.checkpoints.Load()
		bgSkip = db.ckpt.skips.Load()
	}
	return Metrics{
		Pager:       db.PagerStats(),
		PagerShards: db.pager.ShardStats(),
		Txn:         db.txns.Stats(),
		Planner:     db.planner.Snapshot(),
		ODCI:        db.odci.Snapshot(),
		Engine: EngineStats{
			Selects:       db.selects.Load(),
			TracedQueries: db.tracedQueries.Load(),
			SlowQueries:   db.slowQueries.Load(),
			// The legacy admission/window gauges are views over the wait
			// table: the class counts are the acquisition counts.
			AdmitWaits:        admShared.Count + admExcl.Count,
			AdmitWaitNanos:    admShared.TotalNanos + admExcl.TotalNanos,
			MutWaits:          window.Count,
			MutWaitNanos:      window.TotalNanos,
			FetchCalls:        db.FetchCalls(),
			BgCheckpoints:     bgDone,
			BgCheckpointSkips: bgSkip,
		},
		Exec:         db.execStats.Snapshot(),
		Workspace:    WorkspaceStats{Live: live, HighWater: high},
		CommitGroups: db.wal.GroupSizes(),
		Waits:        waits,
		Conflicts:    db.conflicts.Snapshot(),
		FlightEvents: int64(db.flight.Len()),
	}
}

// minShardHitRate / maxShardHitRate bound the per-shard hit rates (the
// skew line in the \stats report).
func minShardHitRate(shards []storage.ShardStats) float64 {
	lo := 1.0
	for _, s := range shards {
		if r := s.HitRate(); r < lo {
			lo = r
		}
	}
	return lo
}

func maxShardHitRate(shards []storage.ShardStats) float64 {
	hi := 0.0
	for _, s := range shards {
		if r := s.HitRate(); r > hi {
			hi = r
		}
	}
	return hi
}

// ResetMetrics zeroes every observability counter (benchmark phases).
// The workspace high-water mark is not reset: it tracks the lifetime
// maximum, which leak checks rely on.
func (db *DB) ResetMetrics() {
	db.ResetPagerStats()
	db.txns.ResetStats()
	db.planner.Reset()
	db.odci.Reset()
	db.selects.Store(0)
	db.tracedQueries.Store(0)
	db.slowQueries.Store(0)
	db.waits.Reset()
	db.conflicts.Reset()
	db.execStats.Reset()
	db.ResetFetchCalls()
	if db.ckpt != nil {
		db.ckpt.checkpoints.Store(0)
		db.ckpt.skips.Store(0)
	}
}

// SetSlowQueryHook installs fn to receive the QueryTrace of every
// non-callback SELECT whose wall time reaches threshold. While a hook is
// installed every query is traced (candidates recorded, operators
// instrumented), so install it only when the overhead is acceptable.
// A nil fn removes the hook.
func (db *DB) SetSlowQueryHook(threshold time.Duration, fn func(*obs.QueryTrace)) {
	if fn == nil {
		db.hookCfg.Store(nil)
		return
	}
	db.hookCfg.Store(&slowHookCfg{threshold: threshold, fn: fn})
}

// Merge folds another snapshot into this one (benchrunner aggregates
// per-experiment snapshots this way). Counters add; the workspace gauges
// take the maximum.
func (m *Metrics) Merge(o Metrics) {
	m.Pager.Fetches += o.Pager.Fetches
	m.Pager.Hits += o.Pager.Hits
	m.Pager.Misses += o.Pager.Misses
	m.Pager.Writes += o.Pager.Writes
	m.Pager.Evictions += o.Pager.Evictions
	m.Pager.Allocs += o.Pager.Allocs
	m.Pager.WALRecords += o.Pager.WALRecords
	m.Pager.WALPages += o.Pager.WALPages
	m.Pager.WALCommits += o.Pager.WALCommits
	m.Pager.WALBytes += o.Pager.WALBytes
	m.Pager.WALSyncs += o.Pager.WALSyncs
	m.Pager.WALGroupedCommits += o.Pager.WALGroupedCommits
	m.Pager.LockWaits += o.Pager.LockWaits
	m.Pager.LockWaitNanos += o.Pager.LockWaitNanos
	for len(m.PagerShards) < len(o.PagerShards) {
		m.PagerShards = append(m.PagerShards, storage.ShardStats{})
	}
	for i := range o.PagerShards {
		m.PagerShards[i].Fetches += o.PagerShards[i].Fetches
		m.PagerShards[i].Hits += o.PagerShards[i].Hits
		m.PagerShards[i].Misses += o.PagerShards[i].Misses
		m.PagerShards[i].Writes += o.PagerShards[i].Writes
		m.PagerShards[i].Evictions += o.PagerShards[i].Evictions
	}
	m.Txn.Begins += o.Txn.Begins
	m.Txn.Commits += o.Txn.Commits
	m.Txn.Rollbacks += o.Txn.Rollbacks
	m.Planner.Merge(o.Planner)
	m.ODCI.Merge(o.ODCI)
	m.Engine.Selects += o.Engine.Selects
	m.Engine.TracedQueries += o.Engine.TracedQueries
	m.Engine.SlowQueries += o.Engine.SlowQueries
	m.Engine.AdmitWaits += o.Engine.AdmitWaits
	m.Engine.AdmitWaitNanos += o.Engine.AdmitWaitNanos
	m.Engine.MutWaits += o.Engine.MutWaits
	m.Engine.MutWaitNanos += o.Engine.MutWaitNanos
	m.Engine.FetchCalls += o.Engine.FetchCalls
	m.Engine.BgCheckpoints += o.Engine.BgCheckpoints
	m.Engine.BgCheckpointSkips += o.Engine.BgCheckpointSkips
	m.CommitGroups.Merge(o.CommitGroups)
	m.Exec.Merge(o.Exec)
	m.Waits.Merge(o.Waits)
	m.Conflicts.Merge(o.Conflicts)
	m.FlightEvents += o.FlightEvents
	if o.Workspace.Live > m.Workspace.Live {
		m.Workspace.Live = o.Workspace.Live
	}
	if o.Workspace.HighWater > m.Workspace.HighWater {
		m.Workspace.HighWater = o.Workspace.HighWater
	}
}

// String renders the snapshot as the sectioned report the \stats
// meta-command prints.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pager:   fetches=%d hits=%d misses=%d (hit rate %.1f%%)\n",
		m.Pager.Fetches, m.Pager.Hits, m.Pager.Misses, m.Pager.HitRate()*100)
	fmt.Fprintf(&b, "         writes=%d evictions=%d allocs=%d\n",
		m.Pager.Writes, m.Pager.Evictions, m.Pager.Allocs)
	fmt.Fprintf(&b, "         lockWaits=%d lockWaitTime=%s\n",
		m.Pager.LockWaits, time.Duration(m.Pager.LockWaitNanos).Round(time.Microsecond))
	if len(m.PagerShards) > 0 {
		fmt.Fprintf(&b, "shards:  %d · hit-rate skew %.1f%%..%.1f%%\n",
			len(m.PagerShards), minShardHitRate(m.PagerShards)*100, maxShardHitRate(m.PagerShards)*100)
		for i, s := range m.PagerShards {
			fmt.Fprintf(&b, "  shard %2d: fetches=%d hits=%d misses=%d writes=%d evictions=%d (hit rate %.1f%%)\n",
				i, s.Fetches, s.Hits, s.Misses, s.Writes, s.Evictions, s.HitRate()*100)
		}
	}
	fmt.Fprintf(&b, "wal:     records=%d pages=%d commits=%d bytes=%d syncs=%d\n",
		m.Pager.WALRecords, m.Pager.WALPages, m.Pager.WALCommits, m.Pager.WALBytes, m.Pager.WALSyncs)
	if m.Pager.WALSyncs > 0 {
		fmt.Fprintf(&b, "         groupedCommits=%d commitsPerFsync=%.2f\n",
			m.Pager.WALGroupedCommits, float64(m.Pager.WALGroupedCommits)/float64(m.Pager.WALSyncs))
	}
	if m.CommitGroups.Count > 0 {
		fmt.Fprintf(&b, "         commitGroups=%d meanGroupSize=%.2f\n",
			m.CommitGroups.Count, m.CommitGroups.Mean())
	}
	fmt.Fprintf(&b, "txn:     begins=%d commits=%d rollbacks=%d\n",
		m.Txn.Begins, m.Txn.Commits, m.Txn.Rollbacks)
	fmt.Fprintf(&b, "engine:  selects=%d traced=%d slow=%d fetchCalls=%d\n",
		m.Engine.Selects, m.Engine.TracedQueries, m.Engine.SlowQueries, m.Engine.FetchCalls)
	if m.Engine.BgCheckpoints != 0 || m.Engine.BgCheckpointSkips != 0 {
		fmt.Fprintf(&b, "         bgCheckpoints=%d bgCheckpointSkips=%d\n",
			m.Engine.BgCheckpoints, m.Engine.BgCheckpointSkips)
	}
	fmt.Fprintf(&b, "         admission waits=%d waitTime=%s window waits=%d waitTime=%s\n",
		m.Engine.AdmitWaits, time.Duration(m.Engine.AdmitWaitNanos).Round(time.Microsecond),
		m.Engine.MutWaits, time.Duration(m.Engine.MutWaitNanos).Round(time.Microsecond))
	fmt.Fprintf(&b, "exec:    %s\n", m.Exec.String())
	fmt.Fprintf(&b, "planner: plans=%d candidates=%d", m.Planner.Plans, m.Planner.Candidates)
	if len(m.Planner.ChosenByKind) > 0 {
		kinds := make([]string, 0, len(m.Planner.ChosenByKind))
		for k := range m.Planner.ChosenByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		b.WriteString(" chosen:")
		for _, k := range kinds {
			fmt.Fprintf(&b, " %s=%d", k, m.Planner.ChosenByKind[k])
		}
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "workspace: live=%d highWater=%d\n", m.Workspace.Live, m.Workspace.HighWater)
	fmt.Fprintf(&b, "conflicts: %s\n", m.Conflicts.String())
	fmt.Fprintf(&b, "flight:  events=%d\n", m.FlightEvents)
	if len(m.Waits.Classes) > 0 {
		b.WriteString("waits (top by total time):\n")
		for _, line := range strings.Split(m.Waits.String(), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		fmt.Fprintf(&b, "  all-class histogram: waits=%d totalBlocked=%s\n",
			m.Waits.Durations.Count, time.Duration(m.Waits.Durations.Sum).Round(time.Microsecond))
	}
	if len(m.ODCI.Callbacks) > 0 {
		b.WriteString("odci callbacks:\n")
		for _, line := range strings.Split(strings.TrimRight(m.ODCI.String(), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}
