package engine

// Regression tests for the write-admission protocol around checkpoints:
// the shared→exclusive upgrade gap, stale write-conflict latches, and
// the frame-orphaning order at transaction end. Each test pins a bug a
// review found in the group-commit PR; the hammer variants also run in
// the race and invariants CI jobs.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
)

// newWALDB opens a default in-memory database, which runs under its
// in-memory WAL with write admission, frame ownership and the mutation
// window all active.
func newWALDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(Options{CacheSizePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestCheckpointRefusedDuringAdmissionUpgradeGap pins the upgrade-gap
// guard: a transaction upgrading shared→exclusive admission releases
// the admission lock entirely before re-acquiring it, so Checkpoint's
// TryLock can succeed mid-upgrade while the transaction still owns
// uncommitted frames. The admitted-map entry is what must keep the
// checkpoint out. The test reproduces the gap state directly — the
// transaction registered as admitted while the admission lock is free —
// and requires Checkpoint to refuse with ErrTxnOpen.
func TestCheckpointRefusedDuringAdmissionUpgradeGap(t *testing.T) {
	db := newWALDB(t)
	tx := db.txns.Begin()
	db.admitMu.Lock()
	db.admitted[tx] = false
	db.admitMu.Unlock()
	if err := db.Checkpoint(); !errors.Is(err, ErrTxnOpen) {
		t.Fatalf("Checkpoint during upgrade gap: got %v, want ErrTxnOpen", err)
	}
	db.admitMu.Lock()
	delete(db.admitted, tx)
	db.admitMu.Unlock()
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint with no writer admitted: %v", err)
	}
}

// TestStatementFailureClearsWriteConflict pins the conflict-latch
// lifecycle: a statement that dirties another transaction's frame and
// then fails for an unrelated reason must consume the latched conflict
// on its way out. Before the fix the latch survived into the pager and
// falsely aborted the next statement with ErrWriteConflict after the
// owning transaction had already committed.
func TestStatementFailureClearsWriteConflict(t *testing.T) {
	db := newWALDB(t)
	a, b := db.NewSession(), db.NewSession()
	mustExec(t, a, `CREATE TABLE T(k NUMBER, v VARCHAR2)`)

	// A opens a transaction and dirties T's heap tail page.
	mustExec(t, a, `BEGIN`)
	mustExec(t, a, `INSERT INTO T VALUES (1, 'one')`)

	// B's statement dirties the same page (latching a conflict, first
	// dirtier wins) and then fails on the second row's type check. The
	// reported error must be the type error, not the conflict.
	_, err := b.Exec(`INSERT INTO T VALUES (2, 'two'), ('bad', 'three')`)
	if err == nil {
		t.Fatal("mixed-row INSERT: expected a validation error")
	}
	if errors.Is(err, storage.ErrWriteConflict) {
		t.Fatalf("mixed-row INSERT: body error displaced by latched conflict: %v", err)
	}

	// Once A finishes, B must succeed: a stale latch from the failed
	// statement would abort this with a phantom ErrWriteConflict. (No
	// statement runs in between — an intervening one would consume the
	// stale latch and mask the regression.)
	mustExec(t, a, `COMMIT`)
	if _, err := b.Exec(`INSERT INTO T VALUES (4, 'four')`); err != nil {
		t.Fatalf("INSERT after owner committed: %v (stale conflict latch?)", err)
	}
	rs := mustQuery(t, b, `SELECT k FROM T`)
	if n := len(rs.Rows); n != 2 {
		t.Fatalf("expected rows {1,4}, got %d rows", n)
	}

	// The conflict machinery itself must keep working: with a fresh
	// owner in flight, a clean statement on the same page is refused.
	mustExec(t, a, `BEGIN`)
	mustExec(t, a, `INSERT INTO T VALUES (5, 'five')`)
	if _, err := b.Exec(`INSERT INTO T VALUES (6, 'six')`); !errors.Is(err, storage.ErrWriteConflict) {
		t.Fatalf("INSERT against open owner: got %v, want ErrWriteConflict", err)
	}
	mustExec(t, a, `COMMIT`)
}

// TestCheckpointVsWriterRaces hammers Checkpoint against explicit
// transactions that commit, roll back, and upgrade their admission
// (plain DML first, bitmap-indexed DML second) — the schedules in which
// a checkpoint could previously slip in during the upgrade gap or
// between admission release and frame orphaning. Under -tags invariants
// the owned-frames assertion in Checkpoint turns either regression into
// a panic; under -race the admitted-map bookkeeping is exercised for
// data races. Checkpoint may be refused (ErrTxnOpen) but must never
// fail otherwise, and the final state must account for every
// acknowledged commit.
func TestCheckpointVsWriterRaces(t *testing.T) {
	db := newWALDB(t)
	setup := db.NewSession()
	const writers = 4
	for w := 0; w < writers; w++ {
		mustExec(t, setup, fmt.Sprintf(`CREATE TABLE P%d(id NUMBER, val VARCHAR2)`, w))
		mustExec(t, setup, fmt.Sprintf(`CREATE TABLE B%d(id NUMBER, dept VARCHAR2)`, w))
		mustExec(t, setup, fmt.Sprintf(`CREATE BITMAP INDEX BIdx%d ON B%d(dept)`, w, w))
	}

	const iters = 150
	var writersWG, cpWG sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, writers+1)

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			s := db.NewSession()
			for i := 0; i < iters; i++ {
				if err := s.Begin(); err != nil {
					errc <- err
					return
				}
				// Shared admit, then upgrade to exclusive: the second
				// statement's table carries a bitmap index.
				_, err := s.Exec(fmt.Sprintf(`INSERT INTO P%d VALUES (%d, 'v')`, w, i))
				if err == nil {
					_, err = s.Exec(fmt.Sprintf(`INSERT INTO B%d VALUES (%d, 'd%d')`, w, i, i%3))
				}
				if err != nil && !errors.Is(err, storage.ErrWriteConflict) {
					errc <- err
					s.Rollback()
					return
				}
				if err != nil || i%3 == 0 {
					err = s.Rollback()
				} else {
					err = s.Commit()
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}

	cpWG.Add(1)
	go func() {
		defer cpWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Checkpoint(); err != nil && !errors.Is(err, ErrTxnOpen) {
				errc <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
	}()

	writersWG.Wait()
	close(stop)
	cpWG.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	if err := db.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	// Every writer's P-table and B-table row counts must agree: each
	// committed transaction wrote exactly one row to each.
	check := db.NewSession()
	for w := 0; w < writers; w++ {
		p := mustQuery(t, check, fmt.Sprintf(`SELECT id FROM P%d`, w))
		b := mustQuery(t, check, fmt.Sprintf(`SELECT id FROM B%d`, w))
		if len(p.Rows) != len(b.Rows) {
			t.Fatalf("writer %d: %d plain rows vs %d bitmap rows", w, len(p.Rows), len(b.Rows))
		}
	}
}
