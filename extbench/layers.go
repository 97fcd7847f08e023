package main

import (
	"strings"

	"repro/internal/cartridge/text"
	"repro/internal/engine"
	"repro/internal/obs"
)

// queryTraced runs a search through Session.QueryTraced and returns, with
// the result, the rows its table access produced (the first operator of
// the trace) and the rows it returned.
func queryTraced(s *engine.Session, o op) (rs *engine.ResultSet, in, out int64, err error) {
	rs, tr, err := s.QueryTraced(o.sql, o.args...)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(tr.Ops) > 0 {
		in = tr.Ops[0].Rows
	}
	return rs, in, tr.Rows, nil
}

// sum totals the spans whose key matches.
func (a spanAggs) sum(match func(k spanKey) bool) spanAgg {
	var s spanAgg
	for k, g := range a {
		if match(k) {
			s.count += g.count
			s.nanos += g.nanos
			s.self += g.self
			s.units += g.units
		}
	}
	return s
}

func named(names ...string) func(spanKey) bool {
	return func(k spanKey) bool {
		for _, n := range names {
			if k.name == n {
				return true
			}
		}
		return false
	}
}

func prefixed(prefixes ...string) func(spanKey) bool {
	return func(k spanKey) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(k.name, p) {
				return true
			}
		}
		return false
	}
}

// under matches callback spans issued directly by one of the routines.
func under(routines ...string) func(spanKey) bool {
	return func(k spanKey) bool {
		if !strings.HasPrefix(k.name, "callback.") {
			return false
		}
		for _, r := range routines {
			if k.parent == r {
				return true
			}
		}
		return false
	}
}

var maintRoutines = []string{"odci.Insert", "odci.Update", "odci.Delete"}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

func waitNanos(m engine.Metrics, c obs.WaitClass) int64 {
	return m.Waits.Classes[c.String()].TotalNanos
}

func waitCount(m engine.Metrics, c obs.WaitClass) int64 {
	return m.Waits.Classes[c.String()].Count
}

// layerMetrics fills the per-layer metrics of a traced run from the
// traced phase p, the set-up spans and the tracing overhead. Every name
// is always present; a layer a workload does not reach reads 0.
func layerMetrics(m metrics, p *phase, setup spanAggs, st setupTimes, overhead float64, loadedRows int) {
	a, b := p.before, p.after
	ops := float64(p.completed())
	writes := float64(len(p.lat.class(classWrite).samples))
	plans := float64(b.Planner.Plans - a.Planner.Plans)
	commits := float64(b.Pager.WALCommits - a.Pager.WALCommits)
	user := float64(p.userBytes)
	sp := p.spans
	perOp := func(ns int64) float64 { return ratio(nsToMS(ns), ops) }

	// engine: statement spans and the callback SQL the engine runs for
	// cartridges, minus everything nested inside them.
	eng := sp.sum(prefixed("stmt.", "callback."))
	m.set("engine.self_ms_per_op", "ms", perOp(eng.self))
	m.set("engine.plan.domain_share", "ratio", ratio(float64(b.Planner.ChosenByKind["DOMAIN"]-a.Planner.ChosenByKind["DOMAIN"]), plans))
	m.set("engine.plan.candidates_per_plan", "count", ratio(float64(b.Planner.Candidates-a.Planner.Candidates), plans))
	m.set("engine.pages_fetched_per_op", "count", ratio(float64(b.Pager.Fetches-a.Pager.Fetches), ops))
	m.set("engine.admission_wait_ms_per_op", "ms", perOp(b.Engine.AdmitWaitNanos-a.Engine.AdmitWaitNanos))
	m.set("engine.mutation_wait_ms_per_op", "ms", perOp(b.Engine.MutWaitNanos-a.Engine.MutWaitNanos))
	m.set("engine.checkpoints", "count", float64(b.Engine.BgCheckpoints-a.Engine.BgCheckpoints))
	m.set("engine.checkpoint_skips", "count", float64(b.Engine.BgCheckpointSkips-a.Engine.BgCheckpointSkips))

	// exec: operator rows from Session.QueryTraced.
	m.set("exec.rows_in_per_row_out", "ratio", ratio(float64(p.rowsIn), float64(p.rowsOut)))

	// extidx: the ODCI routines as the engine calls them.
	start := sp.sum(named("odci.Start"))
	fetch := sp.sum(named("odci.Fetch"))
	m.set("extidx.start_ms_per_scan", "ms", ratio(nsToMS(start.nanos), float64(start.count)))
	m.set("extidx.fetch_ms_per_call", "ms", ratio(nsToMS(fetch.nanos), float64(fetch.count)))
	m.set("extidx.rows_per_fetch", "count", ratio(float64(fetch.units), float64(fetch.count)))
	m.set("extidx.stats_ms_per_plan", "ms", ratio(nsToMS(sp.sum(prefixed("stats.")).nanos), plans))
	fn := sp.sum(named("func." + text.FuncContains))
	m.set("extidx.functional_calls_per_op", "count", ratio(float64(fn.count), ops))
	m.set("extidx.functional_ms_per_op", "ms", perOp(fn.nanos))
	maint := sp.sum(named(maintRoutines...))
	cb := sp.sum(under(maintRoutines...))
	m.set("extidx.maint_ms_per_write", "ms", ratio(nsToMS(maint.nanos), writes))
	// Write service time: write statements minus their wait for admission
	// (only writes take it), so queueing behind the other client's
	// exclusive write does not dilute the share.
	service := sp.sum(named("stmt."+classWrite)).nanos - (b.Engine.AdmitWaitNanos - a.Engine.AdmitWaitNanos)
	m.set("extidx.maint_share_of_write", "ratio", ratio(float64(maint.nanos), float64(service)))
	m.set("extidx.callbacks_per_maint", "count", ratio(float64(cb.count), float64(maint.count)))
	m.set("extidx.callback_ms_per_write", "ms", ratio(nsToMS(cb.nanos), writes))
	create := setup.sum(named("odci.Create"))
	m.set("extidx.create_s", "s", float64(create.nanos)/1e9)
	m.set("extidx.create_callbacks_per_row", "count", ratio(float64(setup.sum(under("odci.Create")).count), float64(loadedRows)))

	// cartridge/text: time inside the cartridge's own code.
	m.set("cartridge.text.self_ms_per_op", "ms", perOp(sp.sum(prefixed("odci.", "stats.", "func.")).self))

	// storage, WAL sink.
	app := sp.sum(named("wal.Append"))
	syn := sp.sum(named("wal.Sync"))
	m.set("wal.bytes_per_commit", "bytes", ratio(float64(app.units), commits))
	m.set("wal.appends_per_commit", "count", ratio(float64(app.count), commits))
	m.set("wal.append_ms_per_commit", "ms", ratio(nsToMS(app.nanos), commits))
	m.set("wal.sync_ms_per_commit", "ms", ratio(nsToMS(syn.nanos), commits))
	m.set("wal.commits_per_sync", "ratio", ratio(commits, float64(b.Pager.WALSyncs-a.Pager.WALSyncs)))
	m.set("wal.append_wait_ms_per_commit", "ms", ratio(nsToMS(waitNanos(b, obs.WaitWALAppend)-waitNanos(a, obs.WaitWALAppend)), commits))
	m.set("wal.group_fsync_wait_ms_per_commit", "ms", ratio(nsToMS(waitNanos(b, obs.WaitWALGroupFsync)-waitNanos(a, obs.WaitWALGroupFsync)), commits))
	m.set("wal.log_bytes_per_user_byte", "ratio", ratio(float64(b.Pager.WALBytes-a.Pager.WALBytes), user))

	// storage, buffer pool.
	fetches := float64(b.Pager.Fetches - a.Pager.Fetches)
	m.set("pager.hit_rate", "ratio", ratio(float64(b.Pager.Hits-a.Pager.Hits), fetches))
	m.set("pager.misses_per_op", "count", ratio(float64(b.Pager.Misses-a.Pager.Misses), ops))
	m.set("pager.evictions_per_op", "count", ratio(float64(b.Pager.Evictions-a.Pager.Evictions), ops))
	m.set("pager.latch_wait_ms_per_op", "ms", perOp(b.Pager.LockWaitNanos-a.Pager.LockWaitNanos))
	m.set("pager.backpressure_events", "count", float64(waitCount(b, obs.WaitCheckpointBackpressure)-waitCount(a, obs.WaitCheckpointBackpressure)))

	// storage, device (page file).
	m.set("device.read_ms_per_op", "ms", perOp(sp.sum(named("device.ReadPage")).nanos))
	m.set("device.write_bytes_per_user_byte", "ratio", ratio(float64(sp.sum(named("device.WritePage")).units+app.units), user))
	m.set("device.sync_ms", "ms", nsToMS(sp.sum(named("device.Sync")).nanos))

	// Go runtime.
	m.set("go.alloc_bytes_per_op", "bytes", ratio(p.rt.allocBytes, ops))
	m.set("go.gc_cpu_fraction", "ratio", ratio(p.rt.gcCPU, p.rt.totalCPU))
	m.set("go.heap_live_mb", "MB", p.heapLiveMB)

	// set-up phases and the tracer itself.
	m.set("setup.load_s", "s", st.load)
	m.set("setup.index_build_s", "s", st.index)
	m.set("trace.overhead_ratio", "ratio", overhead)
}
