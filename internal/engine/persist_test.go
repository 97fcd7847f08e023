package engine

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/extidx"
	"repro/internal/storage"
	"repro/internal/types"
)

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.db")

	// Phase 1: build a schema with every index kind plus a domain index.
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	m := &kwMethods{failNext: map[string]bool{}}
	s := setupKwCartridge(t, db, m)
	mustExec(t, s, `CREATE TABLE t(k NUMBER, cat VARCHAR2, v VARCHAR2)`)
	for i := 0; i < 300; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (?, ?, ?)`,
			types.Int(int64(i)), types.Str([]string{"a", "b", "c"}[i%3]),
			types.Str(strings.Repeat("x", i%20)))
	}
	mustExec(t, s, `CREATE INDEX t_k ON t(k)`)
	mustExec(t, s, `CREATE HASH INDEX t_v ON t(v)`)
	mustExec(t, s, `CREATE BITMAP INDEX t_cat ON t(cat)`)
	mustExec(t, s, `CREATE INDEX DocKwIdx ON Docs(body) INDEXTYPE IS KwIndexType`)
	mustExec(t, s, `CREATE TYPE Pt AS OBJECT (x NUMBER, y NUMBER)`)

	// LOB data persists too.
	lobID, err := db.LOBStore().Create()
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := db.LOBStore().Open(lobID)
	blob.WriteAt([]byte("persisted lob payload"), 0)

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: reopen; cartridge implementations must be re-registered
	// (process state), everything else comes back from the snapshot.
	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	reg := db2.Registry()
	if err := reg.RegisterFunction("HasKwFn", hasKwFn); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterFunction("KwScoreFn", kwScoreFn); err != nil {
		t.Fatal(err)
	}
	m2 := &kwMethods{failNext: map[string]bool{}}
	if err := reg.RegisterMethods("KwIndexMethods", m2); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterStats("KwStats", kwStats{m: m2}); err != nil {
		t.Fatal(err)
	}
	s2 := db2.NewSession()

	// Table data and built-in indexes.
	rs := mustQuery(t, s2, `SELECT COUNT(*) FROM t`)
	if rs.Rows[0][0].Int64() != 300 {
		t.Fatalf("row count after reopen = %s", rs.Rows[0][0])
	}
	rs = mustQuery(t, s2, `SELECT COUNT(*) FROM t WHERE k = 123`)
	if rs.Rows[0][0].Int64() != 1 {
		t.Error("b-tree lookup after reopen failed")
	}
	ex := mustQuery(t, s2, `EXPLAIN PLAN FOR SELECT k FROM t WHERE k = 123`)
	if !strings.Contains(ex.Rows[0][0].Text(), "T_K") {
		t.Errorf("b-tree not used after reopen: %v", ex.Rows)
	}
	s2.SetForcedPath(ForceIndexScan)
	rs = mustQuery(t, s2, `SELECT COUNT(*) FROM t WHERE cat = 'b'`)
	if rs.Rows[0][0].Int64() != 100 {
		t.Errorf("bitmap count after reopen = %s", rs.Rows[0][0])
	}
	s2.SetForcedPath(ForceAuto)

	// Domain index: the index data table survived, the indextype resolves
	// against the re-registered methods, scans and maintenance work.
	s2.SetForcedPath(ForceDomainScan)
	rs = mustQuery(t, s2, `SELECT id FROM Docs WHERE HasKw(body, 'unix') ORDER BY id`)
	if len(rs.Rows) != 2 {
		t.Fatalf("domain scan after reopen = %v", rs.Rows)
	}
	s2.SetForcedPath(ForceAuto)
	mustExec(t, s2, `INSERT INTO Docs VALUES (777, 'reopened unix box')`)
	s2.SetForcedPath(ForceDomainScan)
	rs = mustQuery(t, s2, `SELECT id FROM Docs WHERE HasKw(body, 'unix') ORDER BY id`)
	if len(rs.Rows) != 3 {
		t.Errorf("maintenance after reopen = %v", rs.Rows)
	}
	s2.SetForcedPath(ForceAuto)

	// Object type registry.
	if _, ok := db2.Catalog().TypeDesc("Pt"); !ok {
		t.Error("object type lost")
	}

	// LOB contents.
	blob2, err := db2.LOBStore().Open(lobID)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 21)
	blob2.ReadAt(buf, 0)
	if string(buf) != "persisted lob payload" {
		t.Errorf("lob after reopen = %q", buf)
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.db")
	// A page-aligned file with no superblock magic must be rejected.
	junk := make([]byte, 8192)
	if err := writeFile(path, junk); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Path: path}); err == nil {
		t.Error("foreign file opened as database")
	}
}

func TestCheckpointMakesImageReopenable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.db")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE c(v NUMBER)`)
	mustExec(t, s, `INSERT INTO c VALUES (1), (2)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Reopen from the checkpointed image without Close.
	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rs := mustQuery(t, db2.NewSession(), `SELECT COUNT(*) FROM c`)
	if rs.Rows[0][0].Int64() != 2 {
		t.Errorf("count after checkpoint-reopen = %s", rs.Rows[0][0])
	}
	db.Close()
}

// writeFile is a test helper.
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// dictionaryHead reads the superblock's pointer to the dictionary chain.
func dictionaryHead(t *testing.T, db *DB) storage.PageID {
	t.Helper()
	pg, err := db.pager.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.pager.Unpin(pg, false)
	return storage.PageID(binary.BigEndian.Uint32(pg.Data[8:12]))
}

// failingCreate is an index implementation whose ODCIIndexCreate builds
// its data table through callback DDL — each of which writes the
// dictionary chain — and then fails.
type failingCreate struct{ *kwMethods }

func (m failingCreate) Create(s extidx.Server, info extidx.IndexInfo) error {
	if err := m.kwMethods.Create(s, info); err != nil {
		return err
	}
	return fmt.Errorf("kw: injected create failure")
}

// TestFailedDDLKeepsPreviousDictionary rolls back a DDL after its nested
// callback DDL wrote new dictionary chains: the superblock must point at
// the pre-DDL chain again, and a reopen must see the pre-DDL dictionary.
func TestFailedDDLKeepsPreviousDictionary(t *testing.T) {
	backend, sink := storage.NewMemBackend(), storage.NewMemWALSink()
	db, err := Open(Options{Backend: backend, WALSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	m := &kwMethods{failNext: map[string]bool{}}
	s := setupKwCartridge(t, db, m)
	if err := db.Registry().RegisterMethods("FailingKwMethods", failingCreate{m}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `CREATE INDEXTYPE FailingKwType FOR HasKw(VARCHAR2, VARCHAR2) USING FailingKwMethods`)
	before := dictionaryHead(t, db)
	if _, err := s.Exec(`CREATE INDEX DocKwIdx ON Docs(body) INDEXTYPE IS FailingKwType`); err == nil {
		t.Fatal("CREATE INDEX with a failing ODCIIndexCreate succeeded")
	}
	if after := dictionaryHead(t, db); after != before {
		t.Fatalf("dictionary head after rollback = %d, want the pre-DDL %d", after, before)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Backend: backend, WALSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, ok := db2.Catalog().Index("DocKwIdx"); ok {
		t.Error("index of the rolled-back DDL survived reopen")
	}
	for _, tbl := range db2.Catalog().Tables() {
		if strings.HasPrefix(tbl.Name, "DR$") {
			t.Errorf("data table %s of the rolled-back DDL survived reopen", tbl.Name)
		}
	}
	if _, ok := db2.Catalog().IndexType("FailingKwType"); !ok {
		t.Error("indextype committed before the failed DDL is missing after reopen")
	}
	rs := mustQuery(t, db2.NewSession(), `SELECT COUNT(*) FROM Docs`)
	if rs.Rows[0][0].Int64() != 205 {
		t.Errorf("Docs rows after reopen = %s, want 205", rs.Rows[0][0])
	}
}

// TestCommitSizeIndependentOfDictionary logs a one-row autocommit insert
// into the same small table of two databases, one holding nothing else
// and one holding 200 more tables and a 50,000-row bitmap index: the
// commit record is a transaction id, so the WAL bytes must agree to
// within one page image.
func TestCommitSizeIndependentOfDictionary(t *testing.T) {
	commitBytes := func(big bool) int64 {
		db, err := Open(Options{WALSink: storage.NewMemWALSink(), DisableBackgroundCheckpointer: true})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		s := db.NewSession()
		mustExec(t, s, `CREATE TABLE target(k NUMBER, v VARCHAR2)`)
		if big {
			for i := 0; i < 199; i++ {
				mustExec(t, s, fmt.Sprintf(`CREATE TABLE filler%d(a NUMBER, b VARCHAR2, c NUMBER)`, i))
			}
			mustExec(t, s, `CREATE TABLE big(k NUMBER, grp NUMBER)`)
			for base := 0; base < 50000; base += 1000 {
				var sb strings.Builder
				sb.WriteString(`INSERT INTO big VALUES `)
				for i := base; i < base+1000; i++ {
					if i > base {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "(%d, %d)", i, i%16)
				}
				mustExec(t, s, sb.String())
			}
			mustExec(t, s, `CREATE BITMAP INDEX big_grp ON big(grp)`)
		}
		mustExec(t, s, `INSERT INTO target VALUES (0, 'first row allocates the heap page')`)
		before := db.PagerStats().WALBytes
		mustExec(t, s, `INSERT INTO target VALUES (1, 'measured')`)
		return db.PagerStats().WALBytes - before
	}
	small, large := commitBytes(false), commitBytes(true)
	t.Logf("one-row commit: %d WAL bytes (small dictionary), %d (large dictionary)", small, large)
	if d := large - small; d < -storage.PageSize || d > storage.PageSize {
		t.Fatalf("one-row commit logs %d bytes with a large dictionary vs %d with a small one; want equal within one page image", large, small)
	}
}
