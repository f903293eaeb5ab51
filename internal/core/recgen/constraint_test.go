package recgen

import (
	"slices"
	"testing"

	"trac/internal/core/bruteforce"
	"trac/internal/engine"
	"trac/internal/sqlparser"
	"trac/internal/types"
)

// TestFractionalLiteralsOnIntColumns: no INT equals 1.5 or lies strictly
// between 1.5 and 1.9, so each of these predicates is unsatisfiable over
// T.n and the recency query is provably empty — as it already was for
// `n > 1 AND n < 2`. The executor agrees: the user query returns nothing.
func TestFractionalLiteralsOnIntColumns(t *testing.T) {
	db := engine.New()
	db.MustExec(`CREATE TABLE T (src TEXT, n BIGINT)`)
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	tbl, _ := db.Catalog().Get("T")
	tbl.Schema.SetSourceColumn("src")
	db.MustExec(`INSERT INTO T VALUES ('s1', 1), ('s2', 2)`)
	db.MustExec(`INSERT INTO Heartbeat VALUES ('s1', '2006-03-15 14:20:05'), ('s2', '2006-03-15 14:21:05')`)
	for _, where := range []string{
		`n = 1.5`,
		`n IN (1.5, 2.5)`,
		`n BETWEEN 1.2 AND 1.8`,
		`n > 1.5 AND n < 1.9`,
		`n > 1 AND n < 2`,
	} {
		sql := `SELECT src FROM T WHERE ` + where
		if g := generate(t, db, sql); !g.Empty {
			t.Errorf("%s: recency query %q (minimal %v), want provably empty", where, g.SQL, g.Minimal)
		}
		if got := sourcesOf(t, db, sql); len(got) != 0 {
			t.Errorf("%s: the user query returns %v", where, got)
		}
	}
}

// TestNullIsAPotentialValue: a NULL is a legal value of a column with a
// finite domain and of one under `CHECK (n IN (1, 2))` — the engine admits
// both, since a CHECK rejects only FALSE. So a source whose NULL row answers
// `IS NULL` is relevant (Cor. 3/5): the recency query must report it, and
// so must the brute-force oracle, which enumerates NULL too.
func TestNullIsAPotentialValue(t *testing.T) {
	for _, tc := range []struct{ name, ddl, col string }{
		{"domain", `CREATE TABLE T (src TEXT, v TEXT)`, "v"},
		{"check", `CREATE TABLE T (src TEXT, v BIGINT, CHECK (v IN (1, 2)))`, "v"},
	} {
		db := engine.New()
		db.MustExec(tc.ddl)
		db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
		tbl, _ := db.Catalog().Get("T")
		tbl.Schema.SetSourceColumn("src")
		if tbl.Schema.Columns[1].Kind == types.KindString {
			tbl.Schema.Columns[1].Domain = mustStringDomain("idle", "busy")
		} else {
			tbl.Schema.Columns[1].Domain, _ = types.IntRangeDomain(0, 3)
		}
		db.MustExec(`INSERT INTO T VALUES ('s1', NULL)`)
		db.MustExec(`INSERT INTO Heartbeat VALUES ('s1', '2006-03-15 14:20:05'), ('s2', '2006-03-15 14:21:05')`)

		sql := `SELECT src FROM T WHERE v IS NULL`
		actual := sourcesOf(t, db, sql)
		if !slices.Equal(actual, []string{"s1"}) {
			t.Fatalf("%s: the user query answers from %v, want [s1]", tc.name, actual)
		}
		g := generate(t, db, sql)
		reported := run(t, db, g)
		sel, _ := sqlparser.ParseSelect(sql)
		exact, err := bruteforce.Relevant(sel, db.Catalog(), db.Snapshot(), bruteforce.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range actual {
			if !slices.Contains(exact, s) {
				t.Errorf("%s: oracle %v misses %s, whose row answers the query", tc.name, exact, s)
			}
		}
		for _, s := range exact {
			if !slices.Contains(reported, s) {
				t.Errorf("%s: recency query %q reports %v, missing relevant %s (minimal %v)", tc.name, g.SQL, reported, s, g.Minimal)
			}
		}
	}
}

// sourcesOf runs a user query whose first column is the source and returns
// its distinct sources, sorted.
func sourcesOf(t *testing.T, db *engine.DB, sql string) []string {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryStmtAt(sel, db.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range res.Rows {
		out = append(out, row[0].Str())
	}
	slices.Sort(out)
	return slices.Compact(out)
}
