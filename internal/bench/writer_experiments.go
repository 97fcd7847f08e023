package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
)

// delaySink wraps an in-memory WAL sink with a fixed per-fsync device
// latency. The memory medium's Sync is instantaneous, so a commit's leader
// always finishes syncing before any follower arrives and group commit
// degenerates to one commit per fsync; the deterministic latency stands
// in for a real disk (a 1 ms fsync is a fast SSD, and unlike a real
// file in a tmpfs-backed CI container it behaves the same everywhere).
type delaySink struct {
	*storage.SegmentedSink
	latency time.Duration
}

func (s *delaySink) Sync() error {
	time.Sleep(s.latency)
	return s.SegmentedSink.Sync()
}

// WriterSweep (W1) measures group commit: autocommit insert throughput
// at 1/4/16/64 concurrent writers against a WAL whose fsync costs a
// fixed simulated device latency. Each writer commits into its own
// table (shared admission, the group-commit fast path), so the only
// point of contention is the log tail. With one writer every commit
// pays a full fsync; with many, one leader's fsync covers every commit
// that appended while it ran, so commits/fsync — read from the engine's
// own counters, not inferred from timing — must rise well above 1 and
// throughput must scale past the 1/latency single-writer ceiling.
//
// The sweep is also a parity check: after the storm each table must
// hold exactly the acknowledged rows, and at 16+ writers a
// commits/fsync ratio stuck at 1.0 means the shared-sync path is dead;
// either failure aborts the sweep. cmd/benchrunner's -smoke mode
// additionally fails if the grouping counters never moved.
func WriterSweep(cfg Config) Table {
	const syncLatency = time.Millisecond
	perWriter := cfg.pick(30, 120)

	t := Table{
		ID:         "W1",
		Title:      "group commit: writer sweep at 1 ms simulated fsync latency",
		PaperClaim: "per-transaction write sets let concurrent committers share fsyncs: one log-tail flush durably commits every transaction whose records it covers, so commit throughput scales past the one-fsync-per-commit ceiling",
		Headers: []string{"writers", "commits", "wall", "commits/s",
			"fsyncs", "commits/fsync", "mean group"},
	}

	for _, w := range []int{1, 4, 16, 64} {
		db := must1(engine.Open(engine.Options{
			Backend:        storage.NewMemBackend(),
			WALSink:        &delaySink{SegmentedSink: storage.NewMemSegmentedSink(0), latency: syncLatency},
			CacheSizePages: 512,
		}))
		s := db.NewSession()
		for g := 0; g < w; g++ {
			must1(s.Exec(fmt.Sprintf(`CREATE TABLE W%d(id NUMBER, val VARCHAR2)`, g)))
		}

		var (
			wg       sync.WaitGroup
			errMu    sync.Mutex
			firstErr error
		)
		wall := timed(func() {
			for g := 0; g < w; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					sess := db.NewSession()
					for i := 0; i < perWriter; i++ {
						if _, err := sess.Exec(fmt.Sprintf(`INSERT INTO W%d VALUES (%d, 'w%d')`, g, i, g)); err != nil {
							errMu.Lock()
							if firstErr == nil {
								firstErr = fmt.Errorf("W1: writers=%d writer %d insert %d: %w", w, g, i, err)
							}
							errMu.Unlock()
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
		must(firstErr)

		// Parity: every acknowledged commit is present exactly once.
		for g := 0; g < w; g++ {
			rows := must1(s.Query(fmt.Sprintf(`SELECT id FROM W%d`, g))).Rows
			if len(rows) != perWriter {
				panic(fmt.Sprintf("W1: writers=%d table W%d holds %d rows, want %d acknowledged",
					w, g, len(rows), perWriter))
			}
		}

		m := db.Metrics()
		mustClose(db)

		commits := int64(w) * int64(perWriter)
		perFsync := float64(m.Pager.WALGroupedCommits) / float64(max(int64(1), m.Pager.WALSyncs))
		if w >= 16 && perFsync <= 1.0 {
			panic(fmt.Sprintf("W1: writers=%d commits/fsync=%.2f — shared sync never grouped (%d commits, %d fsyncs)",
				w, perFsync, m.Pager.WALGroupedCommits, m.Pager.WALSyncs))
		}
		// Wait-event parity: a 16-writer storm against a 1 ms fsync must
		// spend real time in the group-fsync wait and must have recorded
		// every shared admission; a dead class here means a recording
		// point was disconnected, which -smoke alone could miss if an
		// earlier experiment lit the class.
		if w >= 16 {
			for _, class := range []string{"AdmissionShared", "WALGroupFsync"} {
				wc := m.Waits.Classes[class]
				if wc.Count == 0 || wc.TotalNanos == 0 {
					panic(fmt.Sprintf("W1: writers=%d wait class %s dead (count=%d totalNanos=%d) — wait-event recording disconnected",
						w, class, wc.Count, wc.TotalNanos))
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(w),
			fmt.Sprint(commits),
			ms(wall),
			fmt.Sprintf("%.0f", float64(commits)/wall.Seconds()),
			fmt.Sprint(m.Pager.WALSyncs),
			fmt.Sprintf("%.2f", perFsync),
			fmt.Sprintf("%.1f", m.CommitGroups.Mean()),
		})
	}
	return t
}
