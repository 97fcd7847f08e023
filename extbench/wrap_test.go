package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cartridge/text"
	"repro/internal/engine"
	"repro/internal/extidx"
)

// plainMethods implements neither optional ODCI extension.
type plainMethods struct{ extidx.IndexMethods }
type plainStats struct{ extidx.StatsMethods }

func TestWrappersForwardOptionalExtensions(t *testing.T) {
	tr := newTracer(false)
	if _, ok := tr.methods(text.Methods{}).(extidx.ParallelMethods); !ok {
		t.Error("wrapped text methods lost ParallelMethods")
	}
	if _, ok := tr.stats(&text.Stats{}).(extidx.StatsCollector); !ok {
		t.Error("wrapped text stats lost StatsCollector")
	}
	if _, ok := tr.methods(plainMethods{text.Methods{}}).(extidx.ParallelMethods); ok {
		t.Error("wrapping added ParallelMethods to an implementation without it")
	}
	if _, ok := tr.stats(plainStats{&text.Stats{}}).(extidx.StatsCollector); ok {
		t.Error("wrapping added StatsCollector to an implementation without it")
	}
}

// outcome is everything a statement shows a client: the plan of a query
// and its rows, or the rows a write affected.
func outcome(t *testing.T, s *engine.Session, o op) string {
	t.Helper()
	if !o.query {
		res, err := s.Exec(o.sql, o.args...)
		if err != nil {
			t.Fatalf("%s: %v", o.sql, err)
		}
		return fmt.Sprintf("affected %d", res.RowsAffected)
	}
	var b strings.Builder
	plan, err := s.Query("EXPLAIN PLAN FOR "+o.sql, o.args...)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", o.sql, err)
	}
	for _, r := range plan.Rows {
		b.WriteString(r[0].Text() + "\n")
	}
	rs, err := s.Query(o.sql, o.args...)
	if err != nil {
		t.Fatalf("%s: %v", o.sql, err)
	}
	rows := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	b.WriteString(strings.Join(rows, "\n"))
	return b.String()
}

// TestWrappersArePlanNeutral runs every statement template of every
// workload on two databases built from one seed, one opened plainly and
// one through every traced seam, and requires identical EXPLAIN text,
// identical results and an identical final table.
func TestWrappersArePlanNeutral(t *testing.T) {
	for name, mk := range workloads {
		t.Run(name, func(t *testing.T) {
			var got [2][]string
			for side, traced := range []bool{false, true} {
				var tr *tracer
				if traced {
					tr = newTracer(false)
					tr.on.Store(true)
				}
				inst, _, err := setUp(filepath.Join(t.TempDir(), "extdb"), mk(7), tr)
				if err != nil {
					t.Fatal(err)
				}
				s := inst.db.NewSession()
				for _, o := range inst.w.templates(rand.New(rand.NewSource(7))) {
					got[side] = append(got[side], o.sql+"\n"+outcome(t, s, o))
					o.done(true)
				}
				table := map[bool]string{true: "acct", false: "docs"}[name == "oltp-cold"]
				got[side] = append(got[side], outcome(t, s, op{query: true, sql: "SELECT * FROM " + table}))
				if err := inst.db.Close(); err != nil {
					t.Fatal(err)
				}
			}
			for i := range got[0] {
				if got[0][i] != got[1][i] {
					t.Errorf("statement %d differs with wrappers on:\n--- off\n%s\n--- on\n%s", i, got[0][i], got[1][i])
				}
			}
		})
	}
}

// TestTracedRunConfirmsWorkloadDesign makes a short traced run of each
// workload and checks that the layers the workload is meant to leave idle
// stay idle, and that text-churn's writes are mostly index maintenance.
func TestTracedRunConfirmsWorkloadDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			rep, err := run(config{workload: name, seed: 3, seconds: 2, trace: true, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct || rep.attempted == 0 || rep.failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.correct, rep.attempted, rep.failed, strings.Join(rep.record, "\n"))
			}
			var busy []string
			for k, g := range rep.spans {
				layer := k.name[:strings.Index(k.name, ".")]
				idle := (name == "oltp-cold" && (layer == "odci" || layer == "stats" || layer == "func" || layer == "callback")) ||
					(name == "text-search" && layer == "wal")
				if idle && g.count != 0 {
					busy = append(busy, fmt.Sprintf("%s×%d", k.name, g.count))
				}
			}
			if len(busy) > 0 {
				t.Errorf("layers the workload should not reach did work: %v", busy)
			}
			m := rep.metrics
			if name == "text-churn" {
				if share := m["extidx.maint_share_of_write"].Value; share <= 0.5 {
					t.Errorf("ODCI maintenance is %.2f of write service time, want > 0.5", share)
				}
			}
		})
	}
}
