package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/engine"
	"repro/internal/types"
	"repro/internal/wordgen"
)

// Statement classes. Every end-to-end latency belongs to one of them.
const (
	classSearch = "search" // WHERE uses a cartridge operator
	classLookup = "lookup" // reads through built-in paths only
	classWrite  = "write"  // autocommit DML, timed until the durable ack
)

// op is one generated statement together with what its result must be.
type op struct {
	class string
	tmpl  string // statement template, for per-template counts
	sql   string
	args  []types.Value
	query bool
	// userBytes is the size of the row values the statement writes.
	userBytes int64
	// check validates a successful statement's result.
	check func(rs *engine.ResultSet, affected int64) error
	// done releases the statement's reservation and, when acked, records
	// its effect in the model.
	done func(acked bool)
}

// workload is one benchmark input set: a schema, its seeded load, a
// statement generator for the timed phase, and the checks that prove the
// engine's outputs right afterwards.
type workload interface {
	// cachePages is the buffer-pool size the workload runs against.
	cachePages() int
	// primary is the class whose latency is the end-to-end p50/p99.
	primary() string
	// load creates the base table and inserts size() seeded rows.
	load(s *engine.Session) error
	size() int
	// index builds the indexes (including ODCIIndexCreate).
	index(s *engine.Session) error
	// next generates client's next statement.
	next(rng *rand.Rand, c *clientGen) op
	// templates returns one instance of every statement template, for
	// the wrapper plan-neutrality self-test.
	templates(rng *rand.Rand) []op
	// verify checks the database against the model once no statement is
	// in flight.
	verify(s *engine.Session) error
	// liveUserBytes is the size of the live row values.
	liveUserBytes() int64
}

// clientGen is a client's private generator state: a shuffled cycle of
// write kinds so inserts and deletes stay in equal shares and the row
// count stays constant.
type clientGen struct {
	writes []string
	words  *wordgen.Generator // documents this client inserts and updates
}

func (c *clientGen) nextWrite(rng *rand.Rand) string {
	if len(c.writes) == 0 {
		c.writes = []string{"insert", "delete", "update"}
		rng.Shuffle(3, func(i, j int) { c.writes[i], c.writes[j] = c.writes[j], c.writes[i] })
	}
	w := c.writes[0]
	c.writes = c.writes[1:]
	return w
}

// workloads maps the names in BENCHMARK.json to their constructors.
var workloads = map[string]func(seed int64) workload{
	"text-search": func(seed int64) workload { return newTextWorld(seed, false) },
	"text-churn":  func(seed int64) workload { return newTextWorld(seed, true) },
	"oltp-cold":   func(seed int64) workload { return newOLTPWorld(seed) },
}

// loadBatch is how many rows one load transaction inserts: large enough
// that the load is not a string of commit fsyncs, small enough that a
// transaction's no-steal dirty set fits the smallest buffer pool.
const loadBatch = 200

// insertRows inserts n generated rows in loadBatch-row transactions.
func insertRows(s *engine.Session, sqlText string, n int, row func(i int) []types.Value) error {
	for i := 0; i < n; i += loadBatch {
		if err := s.Begin(); err != nil {
			return err
		}
		for j := i; j < n && j < i+loadBatch; j++ {
			if _, err := s.Exec(sqlText, row(j)...); err != nil {
				_ = s.Rollback() // the load error is the one to report
				return fmt.Errorf("load row %d: %w", j, err)
			}
		}
		if err := s.Commit(); err != nil {
			return fmt.Errorf("load commit: %w", err)
		}
	}
	return nil
}

// execAll runs DDL statements in order.
func execAll(s *engine.Session, stmts ...string) error {
	for _, q := range stmts {
		if _, err := s.Exec(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	return nil
}

// idsOf extracts column 0 of a result as sorted ids.
func idsOf(rs *engine.ResultSet) []int64 {
	ids := make([]int64, len(rs.Rows))
	for i, r := range rs.Rows {
		ids[i] = r[0].Int64()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// expectAffected is the check of a single-row DML statement.
func expectAffected(want int64) func(*engine.ResultSet, int64) error {
	return func(_ *engine.ResultSet, got int64) error {
		if got != want {
			return fmt.Errorf("%d rows affected, want %d", got, want)
		}
		return nil
	}
}
