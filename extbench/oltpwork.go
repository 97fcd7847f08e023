package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/types"
)

// oltp-cold shape: wide rows so the heap is many pages, and a buffer pool
// a quarter of the page file or less, so every full scan and most point
// lookups miss the pool and read the device.
const (
	oltpRows   = 6000
	oltpGroups = 32
	oltpPad    = 480
	oltpPool   = 96
)

// acctRow is the model of one acct row; pad text is regenerated from its
// key so the model stays small next to the engine's own heap.
type acctRow struct {
	grp, bal int64
	padKey   uint64
}

func (r acctRow) values(id int64) []types.Value {
	return []types.Value{types.Int(id), types.Int(r.grp), types.Int(r.bal), types.Str(padText(r.padKey))}
}

// padText expands key into oltpPad printable bytes (splitmix64 stream).
func padText(key uint64) string {
	var sb strings.Builder
	sb.Grow(oltpPad)
	x := key
	for sb.Len() < oltpPad {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for i := 0; i < 8 && sb.Len() < oltpPad; i++ {
			sb.WriteByte('a' + byte(z%26))
			z >>= 8
		}
	}
	return sb.String()
}

// oltpWorld is acct(id, grp, bal, pad) with a unique B-tree on id and a
// bitmap index on the 32-value grp column; no domain index, so the
// extensible-indexing framework does nothing here.
type oltpWorld struct {
	seed int64
	rows *liveSet[acctRow]

	// Group-count bookkeeping for the in-run COUNT(*) check: count is the
	// acknowledged count per group, pending the inserts and deletes in
	// flight, started how many have ever been sent. A COUNT(*) result
	// may differ from the count at its start by at most the writes that
	// were pending then or started while it ran.
	gmu     sync.Mutex
	count   [oltpGroups]int64
	pending [oltpGroups]int64
	started [oltpGroups]int64
}

func newOLTPWorld(seed int64) *oltpWorld {
	return &oltpWorld{seed: seed, rows: newLiveSet[acctRow]()}
}

func (w *oltpWorld) cachePages() int { return oltpPool }
func (w *oltpWorld) primary() string { return classWrite }
func (w *oltpWorld) size() int       { return oltpRows }

func (w *oltpWorld) load(s *engine.Session) error {
	if err := execAll(s, `CREATE TABLE acct(id NUMBER, grp NUMBER, bal NUMBER, pad VARCHAR2)`); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed))
	rows := make([]acctRow, oltpRows)
	for i := range rows {
		rows[i] = acctRow{grp: int64(rng.Intn(oltpGroups)), bal: rng.Int63n(1e6), padKey: rng.Uint64()}
	}
	err := insertRows(s, `INSERT INTO acct VALUES (?, ?, ?, ?)`, oltpRows, func(i int) []types.Value {
		return rows[i].values(int64(i))
	})
	if err != nil {
		return err
	}
	w.rows = newLiveSet[acctRow]()
	w.count = [oltpGroups]int64{}
	for i, r := range rows {
		w.rows.add(int64(i), r)
		w.count[r.grp]++
	}
	return nil
}

func (w *oltpWorld) index(s *engine.Session) error {
	return execAll(s,
		`CREATE UNIQUE INDEX acct_id ON acct(id)`,
		`CREATE BITMAP INDEX acct_grp ON acct(grp)`)
}

// next: half the statements are writes (insert/delete/update cycle),
// the other half reads — four point lookups to one bitmap COUNT(*).
func (w *oltpWorld) next(rng *rand.Rand, c *clientGen) op {
	if rng.Intn(2) == 0 {
		return w.write(rng, c.nextWrite(rng))
	}
	if rng.Intn(5) == 0 {
		return w.countGroup(rng)
	}
	return w.lookup(rng)
}

func (w *oltpWorld) templates(rng *rand.Rand) []op {
	return []op{
		w.lookup(rng), w.countGroup(rng),
		w.write(rng, "insert"), w.write(rng, "update"), w.write(rng, "delete"),
	}
}

func (w *oltpWorld) lookup(rng *rand.Rand) op {
	id, row, ok := w.rows.reserveRandom(rng)
	if !ok {
		panic("oltp lookup: no live row to reserve")
	}
	return op{class: classLookup, tmpl: "id", query: true,
		sql:  `SELECT id, grp, bal, pad FROM acct WHERE id = ?`,
		args: []types.Value{types.Int(id)},
		check: func(rs *engine.ResultSet, _ int64) error {
			return checkAcct(rs, id, row)
		},
		done: func(bool) { w.rows.release(id, nil) },
	}
}

func checkAcct(rs *engine.ResultSet, id int64, row acctRow) error {
	if len(rs.Rows) != 1 {
		return fmt.Errorf("lookup of id %d returned %d rows", id, len(rs.Rows))
	}
	want := row.values(id)
	for i, v := range rs.Rows[0] {
		if v.String() != want[i].String() {
			return fmt.Errorf("lookup of id %d: column %d is %v, want %v", id, i, v, want[i])
		}
	}
	return nil
}

func (w *oltpWorld) countGroup(rng *rand.Rand) op {
	g := rng.Intn(oltpGroups)
	w.gmu.Lock()
	c0, slack0, started0 := w.count[g], w.pending[g], w.started[g]
	w.gmu.Unlock()
	return op{class: classLookup, tmpl: "count", query: true,
		sql:  `SELECT COUNT(*) FROM acct WHERE grp = ?`,
		args: []types.Value{types.Int(int64(g))},
		check: func(rs *engine.ResultSet, _ int64) error {
			w.gmu.Lock()
			slack := slack0 + w.started[g] - started0
			w.gmu.Unlock()
			got := rs.Rows[0][0].Int64()
			if got < c0-slack || got > c0+slack {
				return fmt.Errorf("COUNT(*) of group %d is %d, want %d±%d", g, got, c0, slack)
			}
			return nil
		},
		done: func(bool) {},
	}
}

// groupWrite brackets an insert or delete that changes group g's count.
func (w *oltpWorld) groupWrite(g int64, delta int64) func(acked bool) {
	w.gmu.Lock()
	w.pending[g]++
	w.started[g]++
	w.gmu.Unlock()
	return func(acked bool) {
		w.gmu.Lock()
		w.pending[g]--
		if acked {
			w.count[g] += delta
		}
		w.gmu.Unlock()
	}
}

func (w *oltpWorld) write(rng *rand.Rand, kind string) op {
	o := op{class: classWrite, tmpl: kind, check: expectAffected(1)}
	switch kind {
	case "insert":
		id := w.rows.reserveNew()
		row := acctRow{grp: int64(rng.Intn(oltpGroups)), bal: rng.Int63n(1e6), padKey: rng.Uint64()}
		o.sql = `INSERT INTO acct VALUES (?, ?, ?, ?)`
		o.args = row.values(id)
		o.userBytes = valueBytes(o.args...)
		counted := w.groupWrite(row.grp, +1)
		o.done = func(acked bool) {
			w.rows.release(id, func() {
				if acked {
					w.rows.add(id, row)
				}
			})
			counted(acked)
		}
	case "delete":
		id, row, ok := w.rows.reserveOldest()
		if !ok {
			panic("oltp delete: no live row to reserve")
		}
		o.sql = `DELETE FROM acct WHERE id = ?`
		o.args = []types.Value{types.Int(id)}
		counted := w.groupWrite(row.grp, -1)
		o.done = func(acked bool) {
			w.rows.release(id, func() {
				if acked {
					delete(w.rows.rows, id)
				}
			})
			counted(acked)
		}
	case "update":
		id, row, ok := w.rows.reserveRandom(rng)
		if !ok {
			panic("oltp update: no live row to reserve")
		}
		row.bal, row.padKey = rng.Int63n(1e6), rng.Uint64()
		pad := padText(row.padKey)
		o.sql = `UPDATE acct SET bal = ?, pad = ? WHERE id = ?`
		o.args = []types.Value{types.Int(row.bal), types.Str(pad), types.Int(id)}
		o.userBytes = valueBytes(o.args[:2]...)
		o.done = func(acked bool) {
			w.rows.release(id, func() {
				if acked {
					w.rows.rows[id] = row
				}
			})
		}
	}
	return o
}

func (w *oltpWorld) verify(s *engine.Session) error {
	ids, rows := w.rows.snapshot()
	rs, err := s.Query(`SELECT id, grp, bal, pad FROM acct`)
	if err != nil {
		return err
	}
	if got := idsOf(rs); !equalIDs(got, ids) {
		return fmt.Errorf("live rows: engine has %d, acknowledged writes leave %d", len(got), len(ids))
	}
	var count [oltpGroups]int64
	for _, r := range rs.Rows {
		id := r[0].Int64()
		one := &engine.ResultSet{Rows: [][]types.Value{r}}
		if err := checkAcct(one, id, rows[id]); err != nil {
			return err
		}
		count[rows[id].grp]++
	}
	// The bitmap and B-tree paths must agree with the heap.
	for g := 0; g < oltpGroups; g++ {
		rs, err := s.Query(`SELECT COUNT(*) FROM acct WHERE grp = ?`, types.Int(int64(g)))
		if err != nil {
			return err
		}
		if got := rs.Rows[0][0].Int64(); got != count[g] {
			return fmt.Errorf("bitmap COUNT(*) of group %d is %d, heap holds %d", g, got, count[g])
		}
	}
	rng := rand.New(rand.NewSource(w.seed ^ 0x5eed))
	for i := 0; i < verifySamples; i++ {
		id := ids[rng.Intn(len(ids))]
		rs, err := s.Query(`SELECT id, grp, bal, pad FROM acct WHERE id = ?`, types.Int(id))
		if err != nil {
			return err
		}
		if err := checkAcct(rs, id, rows[id]); err != nil {
			return err
		}
	}
	return nil
}

func (w *oltpWorld) liveUserBytes() int64 {
	_, rows := w.rows.snapshot()
	return int64(len(rows)) * (8*3 + oltpPad)
}
