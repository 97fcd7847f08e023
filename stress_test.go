package extdb_test

// Concurrent-writer stress: 64 goroutines race mixed DDL and DML over a
// WAL-governed database with two cartridges installed (text and colls),
// plain tables admitting shared (the group-commit fast path), domain-
// indexed tables admitting exclusive, throwaway DDL, and explicit
// transactions that interleave with autocommit writers far enough to
// trigger cross-transaction write conflicts. Run it under -race and
// under -tags invariants: the page-validation checks fire on every
// fetch/unpin and the pin-leak/ownership checks are asserted explicitly
// at the end (LeakCheck, Checkpoint, Close).

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	extdb "repro"
	"repro/internal/storage"
)

const (
	stressWriters    = 64
	stressIters      = 6
	stressPlainTabls = 8
)

// TestStressConcurrentWriters is the 64-writer mixed workload. Any error
// other than a write conflict (retryable by design) is fatal; after the
// storm the database must account for exactly the acknowledged rows,
// hold no leaked pins or orphan owners, keep heap/domain-index
// agreement, checkpoint cleanly, and reopen to the same state.
func TestStressConcurrentWriters(t *testing.T) {
	backend, sink := storage.NewMemBackend(), storage.NewMemSegmentedSink(0)
	db, err := extdb.Open(extdb.Options{Backend: backend, WALSink: sink, CacheSizePages: 256})
	if err != nil {
		t.Fatal(err)
	}
	setup := db.NewSession()
	if err := extdb.InstallTextCartridge(db, setup); err != nil {
		t.Fatal(err)
	}
	if err := extdb.InstallCollsCartridge(db, setup); err != nil {
		t.Fatal(err)
	}
	mustExec := func(stmt string) {
		t.Helper()
		if _, err := setup.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	mustExec(`CREATE TABLE Docs(id NUMBER, body VARCHAR2)`)
	mustExec(`CREATE INDEX DocsIdx ON Docs(body) INDEXTYPE IS TextIndexType`)
	mustExec(`CREATE TABLE Bags(name VARCHAR2, tags VARRAY)`)
	mustExec(`CREATE INDEX BagsIdx ON Bags(tags) INDEXTYPE IS CollIndexType`)
	for p := 0; p < stressPlainTabls; p++ {
		mustExec(fmt.Sprintf(`CREATE TABLE P%d(id NUMBER, val VARCHAR2)`, p))
	}

	words := []string{"unix", "oracle", "btree", "spatial"}
	var nextID atomic.Int64
	plainRows := make([]atomic.Int64, stressPlainTabls) // net rows per P table
	var docRows, bagRows atomic.Int64
	var conflicts atomic.Int64

	// fatalErr collects the first non-conflict error; t.Fatalf must not be
	// called off the test goroutine.
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	conflictOK := func(err error) bool {
		if errors.Is(err, extdb.ErrWriteConflict) {
			conflicts.Add(1)
			return true
		}
		return false
	}

	var wg sync.WaitGroup
	for g := 0; g < stressWriters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < stressIters; i++ {
				p := g % stressPlainTabls
				switch (g + i) % 6 {
				case 0: // shared-admission autocommit insert
					id := nextID.Add(1)
					if _, err := s.Exec(fmt.Sprintf(`INSERT INTO P%d VALUES (%d, 'w%d')`, p, id, g)); err != nil {
						if !conflictOK(err) {
							fail(fmt.Errorf("insert P%d: %w", p, err))
							return
						}
					} else {
						plainRows[p].Add(1)
					}
				case 1: // explicit transaction, commit or roll back
					if err := s.Begin(); err != nil {
						fail(err)
						return
					}
					id1, id2 := nextID.Add(1), nextID.Add(1)
					q := (g + 1) % stressPlainTabls
					_, err1 := s.Exec(fmt.Sprintf(`INSERT INTO P%d VALUES (%d, 'tx%d')`, q, id1, g))
					var err2 error
					if err1 == nil {
						_, err2 = s.Exec(fmt.Sprintf(`INSERT INTO P%d VALUES (%d, 'tx%d')`, q, id2, g))
					}
					err := err1
					if err == nil {
						err = err2
					}
					if err != nil || g%2 == 1 {
						if err != nil && !conflictOK(err) {
							fail(fmt.Errorf("txn insert P%d: %w", q, err))
							return
						}
						if rbErr := s.Rollback(); rbErr != nil {
							fail(fmt.Errorf("rollback: %w", rbErr))
							return
						}
					} else {
						if cErr := s.Commit(); cErr != nil {
							if !conflictOK(cErr) {
								fail(fmt.Errorf("commit: %w", cErr))
								return
							}
						} else {
							plainRows[q].Add(2)
						}
					}
				case 2: // exclusive admission: text domain-index maintenance
					id := nextID.Add(1)
					body := words[g%len(words)] + " " + words[i%len(words)]
					if _, err := s.Exec(fmt.Sprintf(`INSERT INTO Docs VALUES (%d, '%s')`, id, body)); err != nil {
						fail(fmt.Errorf("insert Docs: %w", err))
						return
					}
					docRows.Add(1)
				case 3: // exclusive admission: colls domain-index maintenance
					id := nextID.Add(1)
					name := fmt.Sprintf("bag%d", id)
					tags := []extdb.Value{extdb.Str(words[g%len(words)]), extdb.Str(words[(g+i)%len(words)])}
					if err := s.InsertRow("Bags", []extdb.Value{extdb.Str(name), extdb.Arr(tags...)}); err != nil {
						fail(fmt.Errorf("insert Bags: %w", err))
						return
					}
					bagRows.Add(1)
				case 4: // throwaway DDL (exclusive admission, forced-durable commits)
					tmp := fmt.Sprintf("Tmp%d_%d", g, i)
					if _, err := s.Exec(fmt.Sprintf(`CREATE TABLE %s(id NUMBER)`, tmp)); err != nil {
						fail(fmt.Errorf("create %s: %w", tmp, err))
						return
					}
					if _, err := s.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (1)`, tmp)); err != nil && !conflictOK(err) {
						fail(fmt.Errorf("insert %s: %w", tmp, err))
						return
					}
					if _, err := s.Exec(fmt.Sprintf(`DROP TABLE %s`, tmp)); err != nil {
						fail(fmt.Errorf("drop %s: %w", tmp, err))
						return
					}
				case 5: // update own plain table (may conflict with in-flight txns)
					if _, err := s.Exec(fmt.Sprintf(`UPDATE P%d SET val = 'u%d' WHERE id >= 0`, p, g)); err != nil {
						if !conflictOK(err) {
							fail(fmt.Errorf("update P%d: %w", p, err))
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	errMu.Lock()
	err = firstErr
	errMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	// Accounting: every table holds exactly its acknowledged net rows.
	verify := func(s *extdb.Session, label string) {
		t.Helper()
		for p := 0; p < stressPlainTabls; p++ {
			rs, err := s.Query(fmt.Sprintf(`SELECT id FROM P%d`, p))
			if err != nil {
				t.Fatalf("%s: scan P%d: %v", label, p, err)
			}
			if int64(len(rs.Rows)) != plainRows[p].Load() {
				t.Fatalf("%s: P%d has %d rows, want %d acknowledged",
					label, p, len(rs.Rows), plainRows[p].Load())
			}
		}
		rs, err := s.Query(`SELECT id FROM Docs`)
		if err != nil || int64(len(rs.Rows)) != docRows.Load() {
			t.Fatalf("%s: Docs rows=%d err=%v, want %d", label, len(rs.Rows), err, docRows.Load())
		}
		rs, err = s.Query(`SELECT name FROM Bags`)
		if err != nil || int64(len(rs.Rows)) != bagRows.Load() {
			t.Fatalf("%s: Bags rows=%d err=%v, want %d", label, len(rs.Rows), err, bagRows.Load())
		}
		// Heap/domain-index agreement on both cartridges.
		for _, word := range words {
			full := queryDocIDs(t, s, extdb.ForceFullScan, word, label)
			dom := queryDocIDs(t, s, extdb.ForceDomainScan, word, label)
			if !reflect.DeepEqual(full, dom) {
				t.Fatalf("%s: Contains(%q): full %v != domain %v", label, word, full, dom)
			}
			fullB := queryBagNames(t, s, extdb.ForceFullScan, word, label)
			domB := queryBagNames(t, s, extdb.ForceDomainScan, word, label)
			if !reflect.DeepEqual(fullB, domB) {
				t.Fatalf("%s: CollContains(%q): full %v != domain %v", label, word, fullB, domB)
			}
		}
	}
	verify(setup, "post-storm")

	// Invariants at rest: no leaked pins, no orphan frame owners, and the
	// fsyncs were genuinely shared across the writer population.
	if err := db.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Pager.WALGroupedCommits == 0 || m.CommitGroups.Count == 0 {
		t.Fatalf("group-commit counters dead after %d writers: %+v", stressWriters, m.Pager)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after storm: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close after storm: %v", err)
	}

	// Reopen on the same media: the durable image must agree.
	db2, s2 := reopenDurable(t, crashMedia{backend: backend, sink: sink}, "stress-reopen")
	defer func() {
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	verify(s2, "reopened")
	t.Logf("stress: %d writers, %d conflicts, %.2f commits/fsync",
		stressWriters, conflicts.Load(),
		float64(m.Pager.WALGroupedCommits)/float64(max64(1, m.Pager.WALSyncs)))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
