package planner_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"trac/internal/engine"
	"trac/internal/refeval"
	"trac/internal/sqlparser"
)

// TestHashJoinMatchesReference drives random inner-join blocks through serial
// and parallel plans over sealed and sealed+tail heaps and holds each answer to
// the multiset the naive reference evaluator derives from the cross product.
// The generator covers what the columnar probe has to get right: NULL join
// keys on either side, a select list that reads no column (the output batch
// carries none), one that reads every column of both sides, a residual
// non-equi predicate reading a column nothing else needs, composite keys,
// BIGINT and TIMESTAMP keys, a key that is an expression (boxed per tuple),
// an empty build side and an empty probe side (an empty table, or a
// predicate no row survives), a third relation joined onto the first join's
// output, and MVCC churn: committed updates and deletes before and after the
// seal, plus a deleter still in flight and one that aborted, both inside
// sealed segments.
func TestHashJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20060918))
	columnar := 0
	for trial := 0; trial < 40; trial++ {
		tail := trial%2 == 1
		db, inflight := joinDB(rng, trial, tail)
		for q := 0; q < 10; q++ {
			sql := joinQuery(rng)
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
			plan, err := db.ExplainAt(sql, db.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(plan, "columnar [") {
				columnar++
			}
		}
		if err := inflight.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("coverage: %d columnar hash-join plans", columnar)
	if columnar < 250 {
		t.Errorf("coverage too thin: %d columnar hash-join plans", columnar)
	}
}

var (
	joinKeys  = []string{"NULL", "a", "b", "c", "d", "e"}
	joinTimes = []string{"NULL", "2006-03-15 14:20:01", "2006-03-15 14:20:02", "2006-03-15 14:20:03"}
)

func sqlInt(rng *rand.Rand, n int) string {
	if rng.Intn(6) == 0 {
		return "NULL"
	}
	return fmt.Sprint(rng.Intn(n))
}

// joinDB builds P and B (nullable TEXT, BIGINT and TIMESTAMP join columns
// and one payload column each) and a small C, churns them under MVCC, seals
// everything, and with tail set writes on after the seal. Every seventh
// trial leaves B empty, every eleventh P. The returned batch holds a delete
// of sealed P rows that never commits; the caller aborts it when done.
func joinDB(rng *rand.Rand, trial int, tail bool) (*engine.DB, *engine.Batch) {
	db := engine.New()
	db.MustExec(`CREATE TABLE P (k TEXT, n BIGINT, ts TIMESTAMP, v BIGINT)`)
	db.MustExec(`CREATE TABLE B (k TEXT, n BIGINT, ts TIMESTAMP, w TEXT)`)
	db.MustExec(`CREATE TABLE C (k TEXT, m BIGINT)`)
	write := func() {
		if trial%11 != 10 {
			for i, n := 0, 10+rng.Intn(30); i < n; i++ {
				db.MustExec(fmt.Sprintf(`INSERT INTO P VALUES (%s, %s, %s, %d)`,
					sqlText(rng, joinKeys), sqlInt(rng, 6), sqlText(rng, joinTimes), rng.Intn(10)))
			}
		}
		if trial%7 != 6 {
			for i, n := 0, 5+rng.Intn(15); i < n; i++ {
				db.MustExec(fmt.Sprintf(`INSERT INTO B VALUES (%s, %s, %s, %s)`,
					sqlText(rng, joinKeys), sqlInt(rng, 6), sqlText(rng, joinTimes), sqlText(rng, grps)))
			}
		}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO C VALUES (%s, %s)`, sqlText(rng, joinKeys), sqlInt(rng, 6)))
		}
		db.MustExec(fmt.Sprintf(`UPDATE P SET v = %d WHERE n = %d`, rng.Intn(10), rng.Intn(6)))
		db.MustExec(fmt.Sprintf(`UPDATE B SET w = %s WHERE n = %d`, sqlText(rng, grps), rng.Intn(6)))
		db.MustExec(fmt.Sprintf(`DELETE FROM P WHERE v = %d`, rng.Intn(10)))
	}
	write()
	write()
	db.SealAll()
	// Deleters inside the sealed segments: one committed, one aborted, one
	// left in flight (its victims stay visible to every other snapshot).
	db.MustExec(fmt.Sprintf(`DELETE FROM B WHERE n = %d`, rng.Intn(6)))
	aborted := db.BeginBatch()
	if _, err := aborted.Exec(`DELETE FROM P WHERE v < 5`); err != nil {
		panic(err)
	}
	if err := aborted.Abort(); err != nil {
		panic(err)
	}
	if tail {
		write()
	}
	inflight := db.BeginBatch()
	if _, err := inflight.Exec(`DELETE FROM P WHERE v >= 5`); err != nil {
		panic(err)
	}
	return db, inflight
}

// joinQuery writes one inner-join block over P and B, sometimes C: at least
// one P–B equality, then a random mix of further keys, residuals and
// single-table predicates.
func joinQuery(rng *rand.Rand) string {
	items := []string{
		"'x'",
		"P.k, P.n, P.ts, P.v, B.k, B.n, B.ts, B.w",
		"P.v", "B.w, P.n", "P.k, B.k", "B.ts",
	}[rng.Intn(6)]
	from := []string{"P, B", "B, P", "P, B, C", "C, B, P"}[rng.Intn(4)]
	keys := []string{"P.k = B.k", "B.n = P.n", "P.ts = B.ts", "P.n + 1 = B.n"}
	preds := pickN(rng, keys, 1+rng.Intn(2))
	preds = append(preds, pickN(rng, []string{
		"P.v < B.n", "P.k <> B.w", "P.ts <= B.ts",
		"P.v > 3", "B.w = 'g1'", "P.k IS NOT NULL", "B.n IN (1, 2, 3)",
		"P.v > 100", "B.w = 'nope'",
	}, rng.Intn(3))...)
	if strings.Contains(from, "C") {
		preds = append(preds, pickN(rng, []string{"C.k = B.k", "C.m = P.n", "C.m < P.v", "C.k = P.k"}, 1+rng.Intn(2))...)
	}
	return "SELECT " + items + " FROM " + from + " WHERE " + strings.Join(preds, " AND ")
}
