package planner_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"trac/internal/engine"
	"trac/internal/refeval"
	"trac/internal/shard"
	"trac/internal/sqlparser"
)

// nestedForms are aggregates inside expressions with no GROUP BY: the
// aggregate calls alone make the block grouped.
var nestedForms = []string{
	`SELECT COUNT(*) + 1 FROM P`,
	`SELECT MAX(P.v) - MIN(P.v) FROM P`,
}

// TestClausesMatchReference holds the clauses above the joins — DISTINCT,
// GROUP BY with HAVING, a total-order ORDER BY with LIMIT, non-anchored
// UNIONs and cross products — and the nestedForms to the naive reference
// evaluator, over the join generator's tables: on one engine, sealed and
// with a tail (serial and parallel plans), and on 3 shards against the
// reference over an unsharded twin. An answer under ORDER BY is compared in
// order; any other as a sorted multiset.
func TestClausesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20061017))
	seen := map[string]int{}
	check := func(label, sql string, want []string, got *engine.Result, err error, explain func() string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %q: %v", label, sql, err)
		}
		rows := resultRows(got)
		if !strings.Contains(sql, "ORDER BY") {
			sort.Strings(rows)
		}
		if fmt.Sprint(rows) != fmt.Sprint(want) {
			t.Fatalf("%s %q:\nwant %v\ngot  %v\nplan:\n%s", label, sql, want, rows, explain())
		}
	}
	for trial := 0; trial < 24; trial++ {
		tail := trial%2 == 1
		db, inflight := joinDB(rng, trial, tail)
		for q := 0; q < 12+len(nestedForms); q++ {
			sql, shape := "", "nested"
			if q < 12 {
				sql, shape = clauseQuery(rng)
			} else {
				sql = nestedForms[q-12]
			}
			seen[shape]++
			want := reference(t, db, sql)
			for _, m := range execModes {
				m.apply(db)
				res, err := db.Query(sql)
				check(fmt.Sprintf("trial %d (tail=%v) [%s]", trial, tail, m.name), sql, want, res, err,
					func() string { plan, _ := db.ExplainAt(sql, db.Snapshot()); return plan })
			}
			execModes[0].apply(db)
		}
		if err := inflight.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 10; trial++ {
		twin, r := shardedJoinDB(t, rng, 3)
		for q := 0; q < 12+len(nestedForms); q++ {
			sql, shape := "", "nested"
			if q < 12 {
				sql, shape = clauseQuery(rng)
			} else {
				sql = nestedForms[q-12]
			}
			seen["sharded "+shape]++
			want := reference(t, twin, sql)
			res, err := r.Query(sql)
			check(fmt.Sprintf("sharded trial %d", trial), sql, want, res, err,
				func() string { plan, _ := r.Explain(sql); return plan })
		}
		r.Close()
	}
	t.Logf("coverage: %v", seen)
	for _, shape := range []string{"plain", "grouped", "union", "cross", "nested", "sharded plain", "sharded grouped", "sharded union", "sharded cross", "sharded nested"} {
		if seen[shape] < 4 {
			t.Errorf("coverage too thin: %d %s queries", seen[shape], shape)
		}
	}
}

func reference(t *testing.T, db *engine.DB, sql string) []string {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("generated unparseable SQL %q: %v", sql, err)
	}
	want, err := refeval.Eval(db.Catalog(), db.Snapshot(), sel)
	if err != nil {
		t.Fatalf("reference %q: %v", sql, err)
	}
	return want
}

func resultRows(res *engine.Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		vals := make([]string, len(row))
		for j, v := range row {
			vals[j] = v.String()
		}
		out[i] = strings.Join(vals, "|")
	}
	return out
}

// shardedJoinDB builds P (hash-partitioned on k), B and C (replicated) on an
// n-shard router and the same rows on one engine, churned alike, sealed,
// then written on so that both have a tail.
func shardedJoinDB(t *testing.T, rng *rand.Rand, n int) (*engine.DB, *shard.Router) {
	t.Helper()
	twin := engine.New()
	r, err := shard.New(n)
	if err != nil {
		t.Fatal(err)
	}
	both := func(sql string) {
		twin.MustExec(sql)
		if _, err := r.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	both(`CREATE TABLE P (k TEXT, n BIGINT, ts TIMESTAMP, v BIGINT)`)
	both(`CREATE TABLE B (k TEXT, n BIGINT, ts TIMESTAMP, w TEXT)`)
	both(`CREATE TABLE C (k TEXT, m BIGINT)`)
	if err := r.Partition("P", "k"); err != nil {
		t.Fatal(err)
	}
	write := func() {
		for i, n := 0, 10+rng.Intn(30); i < n; i++ {
			both(fmt.Sprintf(`INSERT INTO P VALUES (%s, %s, %s, %d)`,
				sqlText(rng, joinKeys), sqlInt(rng, 6), sqlText(rng, joinTimes), rng.Intn(10)))
		}
		for i, n := 0, 5+rng.Intn(15); i < n; i++ {
			both(fmt.Sprintf(`INSERT INTO B VALUES (%s, %s, %s, %s)`,
				sqlText(rng, joinKeys), sqlInt(rng, 6), sqlText(rng, joinTimes), sqlText(rng, grps)))
		}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			both(fmt.Sprintf(`INSERT INTO C VALUES (%s, %s)`, sqlText(rng, joinKeys), sqlInt(rng, 6)))
		}
		both(fmt.Sprintf(`UPDATE P SET v = %d WHERE n = %d`, rng.Intn(10), rng.Intn(6)))
		both(fmt.Sprintf(`DELETE FROM P WHERE v = %d`, rng.Intn(10)))
	}
	write()
	write()
	twin.SealAll()
	r.SealAll()
	write()
	return twin, r
}

// clauseQuery writes one statement of a random shape over P, B and C and
// names the shape: a plain block ([DISTINCT], join or cross product), a
// grouped one (GROUP BY, aggregates, HAVING), or a UNION of plain blocks.
// Any of them may end in an ORDER BY that orders its output totally — every
// output column, by position, alias or expression — and then a LIMIT.
func clauseQuery(rng *rand.Rand) (string, string) {
	type item struct{ expr, alias string }
	var items []item
	var sql, shape string
	from, where, cross := "P, B", joinPreds(rng, nil), false
	switch rng.Intn(4) {
	case 0:
		// No equality: the nested loop over P and B.
		from, where, cross = "P, B", joinPreds(rng, []string{}), true
	case 1:
		// C is tied to neither: the nested loop over C and the hash join.
		from, cross = []string{"P, B, C", "C, B, P"}[rng.Intn(2)], true
		where = joinPreds(rng, pickN(rng, []string{"C.m < P.v", "C.m >= 2", "C.k IS NOT NULL"}, rng.Intn(3)))
	}
	switch rng.Intn(3) {
	case 0:
		shape = "plain"
		for _, e := range pickN(rng, []string{"P.k", "P.n", "B.w", "P.v + B.n", "B.ts", "P.ts"}, 1+rng.Intn(3)) {
			items = append(items, item{expr: e})
		}
		sql = "SELECT " + distinctWord(rng) + "%s FROM " + from + where
	case 1:
		shape = "grouped"
		keys := pickN(rng, []string{"P.k", "B.w", "P.n"}, rng.Intn(3))
		for _, k := range keys {
			items = append(items, item{expr: k})
		}
		for _, a := range pickN(rng, []string{"COUNT(*)", "SUM(P.v)", "MIN(B.ts)", "MAX(P.k)", "AVG(P.v)", "COUNT(B.w)"}, 1+rng.Intn(3)) {
			items = append(items, item{expr: a})
		}
		sql = "SELECT " + distinctWord(rng) + "%s FROM " + from + where
		if len(keys) > 0 {
			sql += " GROUP BY " + strings.Join(keys, ", ")
		}
		if rng.Intn(2) == 0 {
			sql += " HAVING " + []string{"COUNT(*) > 1", "SUM(P.v) >= 6", "MIN(P.n) IS NOT NULL", "MAX(B.w) = 'g2'", "AVG(P.v) < 5"}[rng.Intn(5)]
		}
	default:
		shape = "union"
		items = []item{{expr: "k"}, {expr: "n"}}
		blocks := []string{
			"SELECT P.k, P.n FROM P WHERE P.v > 4",
			"SELECT B.k, B.n FROM B",
			"SELECT C.k, C.m FROM C, P WHERE C.m < P.v",
			"SELECT P.k, B.n FROM P, B WHERE P.k = B.k",
			"SELECT DISTINCT B.w, B.n FROM B, C WHERE C.k = B.k",
			"SELECT 'x', 3",
		}
		picked := pickN(rng, blocks, 2+rng.Intn(2))
		if picked[0] == blocks[len(blocks)-1] {
			picked[0], picked[1] = picked[1], picked[0]
		}
		// ORDER BY names an output column only where the first block names
		// its columns k and n.
		if !strings.HasPrefix(picked[0], "SELECT P.k, P.n") && !strings.HasPrefix(picked[0], "SELECT B.k, B.n") {
			items = []item{{expr: "1"}, {expr: "2"}}
		}
		sql = strings.Join(picked, " UNION ")
	}
	if shape != "union" {
		if cross {
			shape = "cross"
		}
		list := make([]string, len(items))
		for i := range items {
			if rng.Intn(3) == 0 {
				items[i].alias = fmt.Sprintf("c%d", i)
			}
			list[i] = items[i].expr
			if items[i].alias != "" {
				list[i] += " AS " + items[i].alias
			}
		}
		sql = fmt.Sprintf(sql, strings.Join(list, ", "))
	}
	if rng.Intn(2) == 0 {
		order := make([]string, len(items))
		for i, p := range rng.Perm(len(items)) {
			switch it := items[p]; {
			case it.alias != "" && rng.Intn(2) == 0:
				order[i] = it.alias
			case shape != "union" && rng.Intn(2) == 0:
				order[i] = it.expr
			case shape == "union" && rng.Intn(2) == 0:
				order[i] = it.expr // an output column's name
			default:
				order[i] = fmt.Sprint(p + 1)
			}
			if rng.Intn(2) == 0 {
				order[i] += " DESC"
			}
		}
		sql += " ORDER BY " + strings.Join(order, ", ")
		if rng.Intn(3) > 0 {
			sql += fmt.Sprintf(" LIMIT %d", rng.Intn(8))
		}
	}
	return sql, shape
}

func distinctWord(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return "DISTINCT "
	}
	return ""
}

// joinPreds is a WHERE clause over P and B: one key equality between them
// unless extra is non-nil, then residual and single-table predicates and
// extra.
func joinPreds(rng *rand.Rand, extra []string) string {
	var preds []string
	if extra == nil {
		preds = pickN(rng, []string{"P.k = B.k", "B.n = P.n", "P.ts = B.ts"}, 1)
	}
	preds = append(preds, pickN(rng, []string{"P.v < B.n", "P.k <> B.w", "P.v > 3", "B.n IN (1, 2, 3)"}, rng.Intn(3))...)
	preds = append(preds, extra...)
	if len(preds) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(preds, " AND ")
}
