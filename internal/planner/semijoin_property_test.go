package planner_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"trac/internal/engine"
	"trac/internal/exec"
	"trac/internal/refeval"
	"trac/internal/sqlparser"
)

// TestSemiJoinMatchesReference drives random DISTINCT-anchored blocks, and
// UNIONs of them, through serial and parallel plans over sealed and sealed+tail
// heaps, and holds each answer to the row set the naive reference evaluator
// derives from the cross product. The generator covers what the semi-join
// has to get right: NULL join keys on both sides, projections with and
// without the anchor's primary key (duplicates must collapse), probe sides
// no row survives on, residual < and <> predicates beside and instead of
// equi-keys, anchors not first in FROM, anchor rows updated and deleted under
// MVCC, index-scan and seq-scan anchors, and arms with different anchor
// predicates. The existential relations declare their source column and
// seal into small segments, so probes keyed on it take segments from their
// source sets — beside versions deleted, inserted by writers still in
// flight, and left by writers that aborted, which a source set still lists.
func TestSemiJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20060915))
	semi, fused, meta := 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		tail := trial%2 == 1
		db, release := anchoredDB(rng, tail)
		for q := 0; q < 10; q++ {
			sql := anchoredQuery(rng)
			sel, err := sqlparser.ParseSelect(sql)
			if err != nil {
				t.Fatalf("generated unparseable SQL %q: %v", sql, err)
			}
			want, err := refeval.Eval(db.Catalog(), db.Snapshot(), sel)
			if err != nil {
				t.Fatalf("reference %q: %v", sql, err)
			}
			for _, m := range execModes {
				m.apply(db)
				res, err := db.Query(sql)
				if err != nil {
					t.Fatalf("trial %d [%s] %q: %v", trial, m.name, sql, err)
				}
				got := make([]string, len(res.Rows))
				for i, row := range res.Rows {
					vals := make([]string, len(row))
					for j, v := range row {
						vals[j] = v.String()
					}
					got[i] = strings.Join(vals, "|")
				}
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					plan, _ := db.ExplainAt(sql, db.Snapshot())
					t.Fatalf("trial %d (tail=%v) [%s] %q:\nwant %v\ngot  %v\nplan:\n%s",
						trial, tail, m.name, sql, want, got, plan)
				}
			}
			execModes[0].apply(db)
			plan, err := db.Planner().PlanSelect(sel, db.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := exec.Drain(plan.Root); err != nil {
				t.Fatal(err)
			}
			desc := plan.Describe()
			if strings.Contains(desc, "semi-join: anchor") {
				semi++
			}
			if strings.Contains(desc, "anchored union") {
				fused++
			}
			if strings.Contains(desc, "from source sets") {
				meta++
			}
		}
		release()
	}
	// The generator must actually reach the paths under test.
	t.Logf("coverage: %d semi-join plans, %d fused unions, %d runs with segments from source sets", semi, fused, meta)
	if semi < 100 || fused < 20 || meta < 20 {
		t.Errorf("coverage too thin: %d semi-join plans, %d fused unions, %d runs with segments from source sets", semi, fused, meta)
	}
}

type execMode struct {
	name     string
	parallel bool
}

// execModes are the executor modes the workload equivalence suites run: the
// serial plan, and the same forced onto morsel-parallel scans.
var execModes = []execMode{
	{name: "serial"},
	{name: "parallel", parallel: true},
}

func (m execMode) apply(db *engine.DB) {
	pl := db.Planner()
	pl.ParallelThreshold, pl.MaxParallel = 0, 0
	if m.parallel {
		pl.ParallelThreshold, pl.MaxParallel = 4, 3
	}
}

func sqlText(rng *rand.Rand, vals []string) string {
	v := vals[rng.Intn(len(vals))]
	if v == "NULL" {
		return v
	}
	return "'" + v + "'"
}

var (
	ids  = []string{"h1", "h2", "h3", "h4", "h5", "h6", "h7", "h8", "h9", "h10", "h11", "h12"}
	srcs = append([]string{"NULL", "h13", "h14"}, ids...)
	grps = []string{"g1", "g2", "g3", "NULL"}
)

// anchoredDB builds H (the anchor: primary key id, a nullable group and a
// value), T1 and T2 (the existential relations: nullable declared source
// columns, sealed every few rows), churns H under MVCC, has T1 churned by a
// writer that aborts, by committed deletes and by a writer left in flight,
// seals everything, and with tail set writes on after the seal so that every
// table also has an unsealed tail. release ends the writer in flight.
func anchoredDB(rng *rand.Rand, tail bool) (db *engine.DB, release func()) {
	db = engine.New()
	db.MustExec(`CREATE TABLE H (id TEXT PRIMARY KEY, grp TEXT, v BIGINT)`)
	db.MustExec(`CREATE TABLE T1 (src TEXT, a BIGINT, b TEXT)`)
	db.MustExec(`CREATE TABLE T2 (src TEXT, c BIGINT)`)
	for _, name := range []string{"T1", "T2"} {
		tbl, err := db.Catalog().Get(name)
		if err != nil {
			panic(err)
		}
		if err := tbl.Schema.SetSourceColumn("src"); err != nil {
			panic(err)
		}
		tbl.SetSealThreshold(4 + rng.Intn(12))
	}
	if rng.Intn(2) == 0 {
		db.MustExec(`CREATE INDEX t1src ON T1 (src)`)
	}
	live := map[string]bool{}
	write := func() {
		for _, id := range ids {
			switch {
			case !live[id] && rng.Intn(3) > 0:
				db.MustExec(fmt.Sprintf(`INSERT INTO H VALUES ('%s', %s, %d)`, id, sqlText(rng, grps), rng.Intn(10)))
				live[id] = true
			case live[id] && rng.Intn(4) == 0:
				db.MustExec(fmt.Sprintf(`UPDATE H SET v = %d, grp = %s WHERE id = '%s'`, rng.Intn(10), sqlText(rng, grps), id))
			case live[id] && rng.Intn(6) == 0:
				db.MustExec(fmt.Sprintf(`DELETE FROM H WHERE id = '%s'`, id))
				live[id] = false
			}
		}
		for i, n := 0, rng.Intn(20); i < n; i++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO T1 VALUES (%s, %d, %s)`, sqlText(rng, srcs), rng.Intn(10), sqlText(rng, grps)))
		}
		if rng.Intn(4) > 0 {
			for i, n := 0, rng.Intn(10); i < n; i++ {
				db.MustExec(fmt.Sprintf(`INSERT INTO T2 VALUES (%s, %d)`, sqlText(rng, srcs), rng.Intn(10)))
			}
		}
	}
	churn := func(run func(string) (int, error)) {
		if _, err := run(fmt.Sprintf(`DELETE FROM T1 WHERE a = %d`, rng.Intn(10))); err != nil {
			panic(err)
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			if _, err := run(fmt.Sprintf(`INSERT INTO T1 VALUES (%s, %d, %s)`, sqlText(rng, srcs), rng.Intn(10), sqlText(rng, grps))); err != nil {
				panic(err)
			}
		}
	}
	write()
	write()
	aborted := db.BeginBatch()
	churn(aborted.Exec)
	if err := aborted.Abort(); err != nil {
		panic(err)
	}
	churn(db.Exec)
	inFlight := db.BeginBatch()
	churn(inFlight.Exec)
	db.SealAll()
	if tail {
		write()
	}
	return db, func() { inFlight.Abort() }
}

func pickN(rng *rand.Rand, from []string, n int) []string {
	out := make([]string, 0, n)
	for _, i := range rng.Perm(len(from))[:n] {
		out = append(out, from[i])
	}
	return out
}

// anchoredQuery writes one DISTINCT block over H and T1 (and sometimes T2),
// or a UNION of up to three such blocks sharing the select list.
func anchoredQuery(rng *rand.Rand) string {
	items := []string{"X.id, X.v", "X.id", "X.v, X.id", "X.grp", "X.grp, X.v", "X.v"}[rng.Intn(6)]
	blocks := 1
	if rng.Intn(3) == 0 {
		blocks = 2 + rng.Intn(2)
	}
	parts := make([]string, blocks)
	for i := range parts {
		from := []string{"H X, T1", "T1, H X", "H X, T1, T2", "T2, H X, T1"}[rng.Intn(4)]
		preds := pickN(rng, []string{
			"X.id = T1.src", "T1.src = X.id", "X.grp = T1.b", "X.v = T1.a",
			"X.v < T1.a", "X.grp <> T1.b",
			"X.id IN ('h1', 'h3', 'h5', 'h7')", "X.v > 3", "X.grp = 'g1'", "X.id = 'h2'",
			"T1.a > 100", "T1.b = 'g1'", "T1.a < 6",
		}, rng.Intn(5))
		if strings.Contains(from, "T2") {
			preds = append(preds, pickN(rng, []string{
				"X.id = T2.src", "T1.a = T2.c", "X.v <> T2.c", "T2.c < 5", "T1.src = T2.src",
			}, rng.Intn(3))...)
		}
		parts[i] = "SELECT DISTINCT " + items + " FROM " + from
		if len(preds) > 0 {
			parts[i] += " WHERE " + strings.Join(preds, " AND ")
		}
	}
	return strings.Join(parts, " UNION ")
}
