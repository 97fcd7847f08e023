package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

func openCkptDB(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.Backend == nil {
		opts.Backend = storage.NewMemBackend()
	}
	if opts.WALSink == nil {
		opts.WALSink = storage.NewMemSegmentedSink(4096)
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBackgroundCheckpointerRunsOnWALGrowth: with a one-byte WAL
// threshold every acknowledged commit makes a checkpoint due, so the
// background goroutine must run one and truncate the log — with no
// foreground Checkpoint call anywhere.
func TestBackgroundCheckpointerRunsOnWALGrowth(t *testing.T) {
	db := openCkptDB(t, Options{CheckpointWALBytes: 1})
	defer func() {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	s := db.NewSession()
	if _, err := s.Exec(`CREATE TABLE T(id NUMBER, v VARCHAR2)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO T VALUES (1, 'x')`); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a background checkpoint", func() bool {
		return db.ckpt.checkpoints.Load() >= 1
	})
	waitFor(t, "the WAL to be truncated", func() bool {
		return db.wal.LogSize() == 0
	})
	if got := db.Metrics().Engine.BgCheckpoints; got < 1 {
		t.Fatalf("Metrics.Engine.BgCheckpoints = %d, want >= 1", got)
	}
}

// TestBackgroundCheckpointerSkipsWhileWriterOpen: a forced poke while a
// write transaction is admitted must be refused (counted as a skip, the
// forced flag preserved), and the writer's own commit must then let the
// deferred checkpoint through.
func TestBackgroundCheckpointerSkipsWhileWriterOpen(t *testing.T) {
	db := openCkptDB(t, Options{CheckpointWALBytes: 1 << 40, CheckpointDirtyPages: 1 << 40})
	defer func() {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	s := db.NewSession()
	if _, err := s.Exec(`CREATE TABLE T(id NUMBER, v VARCHAR2)`); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO T VALUES (1, 'open')`); err != nil {
		t.Fatal(err)
	}
	db.ckpt.poke(true) // backpressure-style forced attempt
	waitFor(t, "the refused attempt to be counted", func() bool {
		return db.ckpt.skips.Load() >= 1
	})
	if got := db.ckpt.checkpoints.Load(); got != 0 {
		t.Fatalf("checkpoint ran with a writer admitted (%d)", got)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// The commit's admission release pokes; the preserved forced flag
	// makes the attempt due even though both thresholds are sky-high.
	waitFor(t, "the deferred checkpoint", func() bool {
		return db.ckpt.checkpoints.Load() >= 1
	})
	if got := db.Metrics().Engine.BgCheckpointSkips; got < 1 {
		t.Fatalf("Metrics.Engine.BgCheckpointSkips = %d, want >= 1", got)
	}
}

// TestBackgroundCheckpointerBackpressure: a transaction that dirties
// more frames than the no-steal pool can hold forces shards to grow,
// which must record CheckpointBackpressure waits and poke the
// checkpointer; once the transaction commits, the deferred checkpoint
// cleans the pool.
func TestBackgroundCheckpointerBackpressure(t *testing.T) {
	db := openCkptDB(t, Options{
		CacheSizePages:       16,
		PagerShards:          2,
		CheckpointWALBytes:   1 << 40,
		CheckpointDirtyPages: 1 << 40,
	})
	defer func() {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	s := db.NewSession()
	if _, err := s.Exec(`CREATE TABLE T(id NUMBER, v VARCHAR2)`); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("p", 2048) // ~4 rows per 8 KiB page
	for i := 0; i < 200; i++ {
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO T VALUES (%d, '%s')`, i, payload)); err != nil {
			t.Fatal(err)
		}
	}
	bp := db.waits.Snapshot().Classes[obs.WaitCheckpointBackpressure.String()]
	if bp.Count == 0 {
		t.Fatal("an over-capacity no-steal transaction recorded no CheckpointBackpressure waits")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the backpressure-deferred checkpoint", func() bool {
		return db.ckpt.checkpoints.Load() >= 1
	})
	waitFor(t, "the pool to be cleaned", func() bool {
		return db.pager.DirtyCount() == 0
	})
}

// TestCheckpointerDisabled: with the background checkpointer off, heavy
// commit traffic past every threshold runs no checkpoint; Close still
// checkpoints in the foreground as before.
func TestCheckpointerDisabled(t *testing.T) {
	sink := storage.NewMemSegmentedSink(4096)
	db := openCkptDB(t, Options{
		WALSink:                       sink,
		CheckpointWALBytes:            1,
		CheckpointDirtyPages:          1,
		DisableBackgroundCheckpointer: true,
	})
	s := db.NewSession()
	if _, err := s.Exec(`CREATE TABLE T(id NUMBER, v VARCHAR2)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO T VALUES (%d, 'x')`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if db.ckpt != nil {
		t.Fatal("checkpointer running although disabled")
	}
	if db.wal.LogSize() == 0 {
		t.Fatal("log empty mid-workload: something checkpointed")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointerCloseDrainsDeterministically: Close during a commit
// storm must drain the background goroutine, checkpoint, and leave media
// that reopen to exactly the committed rows.
func TestCheckpointerCloseDrainsDeterministically(t *testing.T) {
	backend := storage.NewMemBackend()
	sink := storage.NewMemSegmentedSink(1024)
	db := openCkptDB(t, Options{Backend: backend, WALSink: sink, CheckpointWALBytes: 1})
	s := db.NewSession()
	if _, err := s.Exec(`CREATE TABLE T(id NUMBER, v VARCHAR2)`); err != nil {
		t.Fatal(err)
	}
	const rows = 50
	for i := 0; i < rows; i++ {
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO T VALUES (%d, 'r%d')`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if !db.ckpt.stopped.Load() {
		t.Fatal("Close returned with the checkpointer still running")
	}

	db2, err := Open(Options{Backend: backend, WALSink: sink})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	rs, err := db2.NewSession().Query(`SELECT id FROM T ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != rows {
		t.Fatalf("recovered %d rows, want %d", len(rs.Rows), rows)
	}
}
