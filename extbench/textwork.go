package main

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/types"
	"repro/internal/wordgen"
)

// Text corpus shape: documents of 30 Zipf-sampled words over a
// 1,500-word vocabulary. text-search loads 2,000 of them, about 570 pages
// (base table, B-tree and the text cartridge's token table), which fits
// the default 4,096-page buffer pool: it exercises the planner, the ODCI
// scan callbacks and the functional Contains, never the device. Every
// DELETE and UPDATE of text-churn scans the base table and the token
// table in full (see README.md), so text-churn keeps 500 live documents;
// with more, a run on a busy machine falls short of the 1,000 writes its
// p99 needs. Both sizes leave that margin at half the throughput seen
// on an idle 2-CPU machine.
const (
	searchDocs = 2000
	churnDocs  = 500
	textWords  = 30
	textVocab  = 1500
	textPool   = 4096
)

// Term ranks. Rare terms match a handful of documents; common ones match
// 5–45% of them, so AND/OR results and id-range filters have real work.
const (
	rareRankLo   = 300
	commonRankLo = 3
	commonRankHi = 60
)

// textWorld is the docs(id, body) schema with a unique B-tree on id and a
// TextIndexType domain index on body. With churn set, the timed phase is
// single-row autocommit DML at a constant row count; otherwise it is the
// read-only search mix.
type textWorld struct {
	seed  int64
	churn bool
	nDocs int
	docs  *liveSet[string]
}

func newTextWorld(seed int64, churn bool) *textWorld {
	n := searchDocs
	if churn {
		n = churnDocs
	}
	return &textWorld{seed: seed, churn: churn, nDocs: n, docs: newLiveSet[string]()}
}

func (w *textWorld) cachePages() int { return textPool }
func (w *textWorld) size() int       { return w.nDocs }

func (w *textWorld) primary() string {
	if w.churn {
		return classWrite
	}
	return classSearch
}

func (w *textWorld) load(s *engine.Session) error {
	if err := execAll(s, `CREATE TABLE docs(id NUMBER, body VARCHAR2)`); err != nil {
		return err
	}
	g := wordgen.New(w.seed, textVocab)
	bodies := make([]string, w.nDocs)
	for i := range bodies {
		bodies[i] = g.Document(textWords)
	}
	err := insertRows(s, `INSERT INTO docs VALUES (?, ?)`, w.nDocs, func(i int) []types.Value {
		return []types.Value{types.Int(int64(i)), types.Str(bodies[i])}
	})
	if err != nil {
		return err
	}
	w.docs = newLiveSet[string]()
	for i, b := range bodies {
		w.docs.add(int64(i), b)
	}
	return nil
}

func (w *textWorld) index(s *engine.Session) error {
	return execAll(s,
		`CREATE UNIQUE INDEX docs_id ON docs(id)`,
		`CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType`)
}

func (w *textWorld) next(rng *rand.Rand, c *clientGen) op {
	if w.churn {
		return w.write(rng, c, c.nextWrite(rng))
	}
	// Out of eight statements: one lookup, five rare-term searches, one
	// AND/OR search and one id-range search. Rare terms (and about half
	// the AND/OR searches) take the domain scan and return in well under a
	// millisecond; the other searches run the functional Contains over
	// 200–2,000 rows and take tens. With these shares the search class's
	// median lies inside the domain-scan mode and its p99 inside the
	// functional mode, each well away from the jump between the two, so
	// p50_ms follows the ODCI scan path and p99_ms the functional path.
	switch r := rng.Intn(8); {
	case r < 1:
		return w.lookup(rng)
	case r < 6:
		return w.search(rng, "rare")
	case r < 7:
		return w.search(rng, "andor")
	}
	return w.search(rng, "range")
}

func (w *textWorld) templates(rng *rand.Rand) []op {
	c := &clientGen{}
	return []op{
		w.search(rng, "rare"), w.search(rng, "andor"), w.search(rng, "range"),
		w.lookup(rng),
		w.write(rng, c, "insert"), w.write(rng, c, "update"), w.write(rng, c, "delete"),
	}
}

func commonTerm(rng *rand.Rand) string {
	return wordgen.Word(commonRankLo + rng.Intn(commonRankHi-commonRankLo))
}

// search generates a Contains statement of the given template. Its
// in-run check is that every returned id is live (and in range); the
// full answer is compared with the functional plan in verify.
func (w *textWorld) search(rng *rand.Rand, tmpl string) op {
	o := op{class: classSearch, tmpl: tmpl, query: true,
		sql: `SELECT id FROM docs WHERE Contains(body, ?)`}
	lo, hi := int64(-1<<62), int64(1<<62)
	switch tmpl {
	case "rare":
		o.args = []types.Value{types.Str(wordgen.Word(rareRankLo + rng.Intn(textVocab-rareRankLo)))}
	case "andor":
		conj := " AND "
		if rng.Intn(2) == 0 {
			conj = " OR "
		}
		o.args = []types.Value{types.Str(commonTerm(rng) + conj + commonTerm(rng))}
	case "range":
		w.docs.mu.Lock()
		first, last := int64(0), w.docs.nextID-1
		if w.docs.head < len(w.docs.order) {
			first = w.docs.order[w.docs.head]
		}
		w.docs.mu.Unlock()
		width := int64(w.nDocs / 10)
		span := last - first - width
		if span < 1 {
			span = 1
		}
		lo = first + rng.Int63n(span)
		hi = lo + width - 1
		o.sql = `SELECT id FROM docs WHERE Contains(body, ?) AND id BETWEEN ? AND ?`
		o.args = []types.Value{types.Str(commonTerm(rng)), types.Int(lo), types.Int(hi)}
	}
	o.check = func(rs *engine.ResultSet, _ int64) error {
		w.docs.mu.Lock()
		defer w.docs.mu.Unlock()
		for _, r := range rs.Rows {
			id := r[0].Int64()
			if _, ok := w.docs.rows[id]; !ok {
				return fmt.Errorf("returned id %d is not a live document", id)
			}
			if id < lo || id > hi {
				return fmt.Errorf("returned id %d outside [%d, %d]", id, lo, hi)
			}
		}
		return nil
	}
	o.done = func(bool) {}
	return o
}

func (w *textWorld) lookup(rng *rand.Rand) op {
	id, body, ok := w.docs.reserveRandom(rng)
	if !ok {
		panic("text lookup: no live document to reserve")
	}
	return op{class: classLookup, tmpl: "id", query: true,
		sql:  `SELECT id, body FROM docs WHERE id = ?`,
		args: []types.Value{types.Int(id)},
		check: func(rs *engine.ResultSet, _ int64) error {
			if len(rs.Rows) != 1 || rs.Rows[0][1].Text() != body {
				return fmt.Errorf("lookup of id %d returned %d rows or a stale body", id, len(rs.Rows))
			}
			return nil
		},
		done: func(bool) { w.docs.release(id, nil) },
	}
}

// write generates one single-row DML statement against the sliding id
// window: inserts at the head, deletes of the oldest document, updates
// of a random live one.
func (w *textWorld) write(rng *rand.Rand, c *clientGen, kind string) op {
	if c.words == nil {
		c.words = wordgen.New(rng.Int63(), textVocab)
	}
	o := op{class: classWrite, tmpl: kind, check: expectAffected(1)}
	switch kind {
	case "insert":
		id, body := w.docs.reserveNew(), c.words.Document(textWords)
		o.sql = `INSERT INTO docs VALUES (?, ?)`
		o.args = []types.Value{types.Int(id), types.Str(body)}
		o.done = func(acked bool) {
			w.docs.release(id, func() {
				if acked {
					w.docs.add(id, body)
				}
			})
		}
	case "delete":
		id, _, ok := w.docs.reserveOldest()
		if !ok {
			panic("text delete: no live document to reserve")
		}
		o.sql = `DELETE FROM docs WHERE id = ?`
		o.args = []types.Value{types.Int(id)}
		o.done = func(acked bool) {
			w.docs.release(id, func() {
				if acked {
					delete(w.docs.rows, id)
				}
			})
		}
	case "update":
		id, _, ok := w.docs.reserveRandom(rng)
		if !ok {
			panic("text update: no live document to reserve")
		}
		body := c.words.Document(textWords)
		o.sql = `UPDATE docs SET body = ? WHERE id = ?`
		o.args = []types.Value{types.Str(body), types.Int(id)}
		o.done = func(acked bool) {
			w.docs.release(id, func() {
				if acked {
					w.docs.rows[id] = body
				}
			})
		}
	}
	o.userBytes = valueBytes(o.args...)
	if kind != "insert" {
		o.userBytes -= 8 // the id in WHERE is not a written value
	}
	return o
}

// verifySamples is how many seeded search statements verify compares
// between the auto-planned and the functional (full-scan) evaluation.
const verifySamples = 24

func (w *textWorld) verify(s *engine.Session) error {
	ids, rows := w.docs.snapshot()
	rs, err := s.Query(`SELECT id, body FROM docs`)
	if err != nil {
		return err
	}
	if got := idsOf(rs); !equalIDs(got, ids) {
		return fmt.Errorf("live documents: engine has %d, acknowledged writes leave %d", len(got), len(ids))
	}
	for _, r := range rs.Rows {
		if r[1].Text() != rows[r[0].Int64()] {
			return fmt.Errorf("document %d does not hold its last acknowledged body", r[0].Int64())
		}
	}
	// §2.4.2: whatever access path the optimizer picks must return the
	// rows of the operator's functional implementation.
	rng := rand.New(rand.NewSource(w.seed ^ 0x5eed))
	defer s.SetForcedPath(engine.ForceAuto)
	for i := 0; i < verifySamples; i++ {
		o := w.search(rng, []string{"rare", "andor", "range"}[i%3])
		s.SetForcedPath(engine.ForceAuto)
		auto, err := s.Query(o.sql, o.args...)
		if err != nil {
			return err
		}
		s.SetForcedPath(engine.ForceFullScan)
		fn, err := s.Query(o.sql, o.args...)
		if err != nil {
			return err
		}
		if a, f := idsOf(auto), idsOf(fn); !equalIDs(a, f) {
			return fmt.Errorf("%s %v: planned plan returned %d rows, functional evaluation %d", o.sql, o.args, len(a), len(f))
		}
	}
	return nil
}

func (w *textWorld) liveUserBytes() int64 {
	_, rows := w.docs.snapshot()
	var n int64
	for _, b := range rows {
		n += 8 + int64(len(b))
	}
	return n
}
