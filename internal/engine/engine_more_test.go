package engine

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/extidx"
	"repro/internal/types"
)

func TestConcurrentSessionsDisjointTables(t *testing.T) {
	db := newDB(t)
	setup := db.NewSession()
	for i := 0; i < 4; i++ {
		mustExec(t, setup, fmt.Sprintf(`CREATE TABLE t%d(v NUMBER)`, i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := db.NewSession()
			for j := 0; j < 200; j++ {
				if _, err := s.Exec(fmt.Sprintf(`INSERT INTO t%d VALUES (?)`, i), types.Int(int64(j))); err != nil {
					errs <- err
					return
				}
			}
			rs, err := s.Query(fmt.Sprintf(`SELECT COUNT(*) FROM t%d`, i))
			if err != nil {
				errs <- err
				return
			}
			if rs.Rows[0][0].Int64() != 200 {
				errs <- fmt.Errorf("t%d count = %s", i, rs.Rows[0][0])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestConcurrentReadersAndWriterSameTable(t *testing.T) {
	db := newDB(t)
	setup := db.NewSession()
	mustExec(t, setup, `CREATE TABLE shared(v NUMBER)`)
	mustExec(t, setup, `INSERT INTO shared VALUES (1), (2), (3)`)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs, err := s.Query(`SELECT COUNT(*) FROM shared`)
				if err != nil {
					errs <- err
					return
				}
				// Writers only append; count is monotone >= 3.
				if rs.Rows[0][0].Int64() < 3 {
					errs <- fmt.Errorf("reader saw %s rows", rs.Rows[0][0])
					return
				}
			}
		}()
	}
	w := db.NewSession()
	for i := 0; i < 300; i++ {
		mustExec(t, w, `INSERT INTO shared VALUES (?)`, types.Int(int64(i)))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	rs := mustQuery(t, w, `SELECT COUNT(*) FROM shared`)
	if rs.Rows[0][0].Int64() != 303 {
		t.Errorf("final count = %s", rs.Rows[0][0])
	}
}

func TestTxLOBUndo(t *testing.T) {
	db := newDB(t)
	s := db.NewSession()
	// Work through a callback server so LOB writes are transactional.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	srv := s.server(extidx.ModeDefinition, "")
	lobs := srv.LOBs()
	id, err := lobs.Create()
	if err != nil {
		t.Fatal(err)
	}
	b, err := lobs.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte("committed"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Overwrite + truncate inside a rolled-back transaction must revert.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	srv = s.server(extidx.ModeDefinition, "")
	b2, err := srv.LOBs().Open(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.WriteAt([]byte("SCRIBBLE!"), 0); err != nil {
		t.Fatal(err)
	}
	if err := b2.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}

	raw, err := db.LOBStore().Open(id)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	if _, err := raw.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "committed" {
		t.Errorf("LOB after rollback = %q", buf)
	}
	if n, _ := raw.Length(); n != 9 {
		t.Errorf("LOB length after rollback = %d", n)
	}
	// A LOB created in a rolled-back transaction disappears.
	s.Begin()
	srv = s.server(extidx.ModeDefinition, "")
	tmpID, _ := srv.LOBs().Create()
	s.Rollback()
	if _, err := db.LOBStore().Open(tmpID); err == nil {
		t.Error("LOB created in rolled-back txn survived")
	}
	// A delete rolled back leaves the LOB openable with its content; a
	// committed delete retires the locator.
	for _, commit := range []bool{false, true} {
		s.Begin()
		srv = s.server(extidx.ModeDefinition, "")
		if err := srv.LOBs().Delete(id); err != nil {
			t.Fatal(err)
		}
		if _, err := db.LOBStore().Open(id); err == nil {
			t.Error("LOB deleted in an open txn still opens")
		}
		if commit {
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := db.LOBStore().Open(id); err == nil {
				t.Error("LOB deleted in a committed txn still opens")
			}
			continue
		}
		s.Rollback()
		raw, err := db.LOBStore().Open(id)
		if err != nil {
			t.Fatalf("LOB deleted in a rolled-back txn: %v", err)
		}
		got := make([]byte, 9)
		if _, err := raw.ReadAt(got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if string(got) != "committed" {
			t.Errorf("LOB after rolled-back delete = %q", got)
		}
	}
}

func TestRowidAccessPath(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `CREATE TABLE t(v VARCHAR2)`)
	mustExec(t, s, `INSERT INTO t VALUES ('a'), ('b'), ('c')`)
	rows := mustQuery(t, s, `SELECT ROWID, v FROM t WHERE v = 'b'`)
	rid := rows.Rows[0][0]

	ex := mustQuery(t, s, `EXPLAIN PLAN FOR SELECT v FROM t WHERE ROWID = ?`, rid)
	if !strings.Contains(ex.Rows[0][0].Text(), "BY ROWID") {
		t.Errorf("plan = %v", ex.Rows)
	}
	rs := mustQuery(t, s, `SELECT v FROM t WHERE ROWID = ?`, rid)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text() != "b" {
		t.Errorf("rowid fetch = %v", rs.Rows)
	}
	// A stale rowid yields zero rows, not an error.
	mustExec(t, s, `DELETE FROM t WHERE v = 'b'`)
	rs = mustQuery(t, s, `SELECT v FROM t WHERE ROWID = ?`, rid)
	if len(rs.Rows) != 0 {
		t.Errorf("stale rowid matched %v", rs.Rows)
	}
}

func TestRowidJoinUsesDirectFetch(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `CREATE TABLE big(v NUMBER)`)
	for i := 0; i < 500; i++ {
		mustExec(t, s, `INSERT INTO big VALUES (?)`, types.Int(int64(i)))
	}
	mustExec(t, s, `CREATE TABLE picks(rid NUMBER)`)
	base := mustQuery(t, s, `SELECT ROWID FROM big WHERE v < 5`)
	for _, r := range base.Rows {
		mustExec(t, s, `INSERT INTO picks VALUES (?)`, r[0])
	}
	ex := mustQuery(t, s, `EXPLAIN PLAN FOR SELECT b.v FROM big b, picks p WHERE b.ROWID = p.rid`)
	var plan []string
	for _, r := range ex.Rows {
		plan = append(plan, r[0].Text())
	}
	joined := strings.Join(plan, "|")
	if !strings.Contains(joined, "BY ROWID ON BIG") {
		t.Errorf("plan = %v", plan)
	}
	rs := mustQuery(t, s, `SELECT b.v FROM big b, picks p WHERE b.ROWID = p.rid ORDER BY b.v`)
	if len(rs.Rows) != 5 || rs.Rows[4][0].Int64() != 4 {
		t.Errorf("rowid join = %v", rs.Rows)
	}
}

func TestOrderByNonSelectedExpression(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `CREATE TABLE t(a NUMBER, b NUMBER)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 30), (2, 10), (3, 20)`)
	rs := mustQuery(t, s, `SELECT a FROM t ORDER BY b`)
	if len(rs.Columns) != 1 || rs.Columns[0] != "A" {
		t.Errorf("hidden sort column leaked: %v", rs.Columns)
	}
	got := []int64{rs.Rows[0][0].Int64(), rs.Rows[1][0].Int64(), rs.Rows[2][0].Int64()}
	if got[0] != 2 || got[1] != 3 || got[2] != 1 {
		t.Errorf("order = %v", got)
	}
	// ORDER BY an alias.
	rs = mustQuery(t, s, `SELECT a * 10 AS tens FROM t ORDER BY tens DESC`)
	if rs.Rows[0][0].Float() != 30 {
		t.Errorf("alias order = %v", rs.Rows)
	}
	// ORDER BY expression also in the select list (matched, not duplicated).
	rs = mustQuery(t, s, `SELECT b FROM t ORDER BY b DESC LIMIT 1`)
	if rs.Rows[0][0].Float() != 30 {
		t.Errorf("matched order = %v", rs.Rows)
	}
}

func TestStatementErrors(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `CREATE TABLE t(a NUMBER)`)
	for _, bad := range []string{
		`SELECT * FROM missing`,
		`SELECT nope FROM t`,
		`INSERT INTO missing VALUES (1)`,
		`INSERT INTO t (nope) VALUES (1)`,
		`INSERT INTO t VALUES (1, 2)`,
		`UPDATE t SET nope = 1`,
		`DELETE FROM missing`,
		`CREATE INDEX i ON missing(a)`,
		`CREATE INDEX i ON t(nope)`,
		`DROP INDEX missing`,
		`CREATE INDEX di ON t(a) INDEXTYPE IS NoSuchType`,
		`CREATE TABLE t(a NUMBER)`, // duplicate
		`SELECT * FROM t WHERE a = 'x' AND`,
	} {
		if _, err := s.Exec(bad); err == nil {
			t.Errorf("%q succeeded", bad)
		}
	}
	// Kind validation on insert.
	if _, err := s.Exec(`INSERT INTO t VALUES ('string-into-number')`); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestNamedBindParams(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `CREATE TABLE t(a NUMBER, b VARCHAR2)`)
	// Named binds are positional under the hood (:x is bind 0, :y bind 1).
	mustExec(t, s, `INSERT INTO t VALUES (:x, :y)`, types.Int(7), types.Str("seven"))
	rs := mustQuery(t, s, `SELECT b FROM t WHERE a = :val`, types.Int(7))
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text() != "seven" {
		t.Errorf("named binds = %v", rs.Rows)
	}
}

func TestSelectExpressionsOnly(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `CREATE TABLE one(v NUMBER)`)
	mustExec(t, s, `INSERT INTO one VALUES (1)`)
	rs := mustQuery(t, s, `SELECT 2 + 3, 'lit' FROM one`)
	if rs.Rows[0][0].Float() != 5 || rs.Rows[0][1].Text() != "lit" {
		t.Errorf("constant select = %v", rs.Rows)
	}
}

func TestDistinctAndMultiColumnOrder(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `CREATE TABLE t(a NUMBER, b VARCHAR2)`)
	mustExec(t, s, `INSERT INTO t VALUES (1,'x'), (1,'x'), (2,'x'), (1,'y')`)
	rs := mustQuery(t, s, `SELECT DISTINCT a, b FROM t ORDER BY a, b`)
	if len(rs.Rows) != 3 {
		t.Fatalf("distinct = %v", rs.Rows)
	}
	if rs.Rows[0][0].Int64() != 1 || rs.Rows[0][1].Text() != "x" ||
		rs.Rows[1][1].Text() != "y" || rs.Rows[2][0].Int64() != 2 {
		t.Errorf("order = %v", rs.Rows)
	}
}

func TestAnalyzeTable(t *testing.T) {
	db := newDB(t)
	m := &kwMethods{failNext: map[string]bool{}}
	s := setupKwCartridge(t, db, m)
	mustExec(t, s, `CREATE TABLE a(k NUMBER)`)
	mustExec(t, s, `CREATE INDEX a_k ON a(k)`)
	// Stats are stale after bulk inserts (DistinctKeys collected at build
	// time over an empty table).
	for i := 0; i < 500; i++ {
		mustExec(t, s, `INSERT INTO a VALUES (?)`, types.Int(int64(i%50)))
	}
	ix, _ := db.Catalog().Index("a_k")
	if ix.DistinctKeys != 0 {
		t.Fatalf("pre-analyze DistinctKeys = %d", ix.DistinctKeys)
	}
	mustExec(t, s, `ANALYZE TABLE a`)
	if ix.DistinctKeys != 50 {
		t.Errorf("post-analyze DistinctKeys = %d, want 50", ix.DistinctKeys)
	}
	tbl, _ := db.Catalog().Table("a")
	if tbl.RowCount != 500 {
		t.Errorf("post-analyze RowCount = %d", tbl.RowCount)
	}
	// ANALYZE on a table with a domain index invokes StatsCollector when
	// implemented (kwStats does not implement it; just assert no error).
	mustExec(t, s, `CREATE INDEX DocKwIdx ON Docs(body) INDEXTYPE IS KwIndexType`)
	mustExec(t, s, `ANALYZE TABLE Docs`)
	if _, err := s.Exec(`ANALYZE TABLE missing`); err == nil {
		t.Error("analyze of missing table succeeded")
	}
}

func TestThreeTableJoin(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `CREATE TABLE region(rid NUMBER, rname VARCHAR2)`)
	mustExec(t, s, `CREATE TABLE dept(did NUMBER, region_id NUMBER, dname VARCHAR2)`)
	mustExec(t, s, `CREATE TABLE emp(name VARCHAR2, dept_id NUMBER)`)
	mustExec(t, s, `INSERT INTO region VALUES (1, 'west'), (2, 'east')`)
	mustExec(t, s, `INSERT INTO dept VALUES (10, 1, 'eng'), (20, 2, 'sales')`)
	mustExec(t, s, `INSERT INTO emp VALUES ('a', 10), ('b', 10), ('c', 20)`)
	mustExec(t, s, `CREATE INDEX dept_pk ON dept(did)`)
	mustExec(t, s, `CREATE INDEX region_pk ON region(rid)`)
	rs := mustQuery(t, s, `SELECT e.name, d.dname, r.rname
		FROM emp e, dept d, region r
		WHERE e.dept_id = d.did AND d.region_id = r.rid
		ORDER BY e.name`)
	if len(rs.Rows) != 3 {
		t.Fatalf("3-way join = %v", rs.Rows)
	}
	if rs.Rows[0][2].Text() != "west" || rs.Rows[2][2].Text() != "east" {
		t.Errorf("join values = %v", rs.Rows)
	}
	// With an extra filter on the last table.
	rs = mustQuery(t, s, `SELECT e.name FROM emp e, dept d, region r
		WHERE e.dept_id = d.did AND d.region_id = r.rid AND r.rname = 'west' ORDER BY e.name`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].Text() != "a" {
		t.Errorf("filtered 3-way join = %v", rs.Rows)
	}
}
