package engine

import (
	"fmt"
	"strings"
	"testing"

	"trac/internal/storage"
	"trac/internal/types"
)

// query runs sql and reports whether its plan came from the statement's
// template.
func query(t *testing.T, db *DB, sql string) (*Result, bool, error) {
	t.Helper()
	hits, _ := db.Planner().TemplateStats()
	res, err := db.Query(sql)
	again, _ := db.Planner().TemplateStats()
	return res, again > hits, err
}

// mustQuery is query for a statement that must run.
func mustQuery(t *testing.T, db *DB, sql string) (*Result, bool) {
	t.Helper()
	res, hit, err := query(t, db, sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res, hit
}

func explain(t *testing.T, db *DB, sql string) string {
	t.Helper()
	plan, err := db.ExplainAt(sql, db.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestTemplateOverDroppedTempTableErrors: a session's temp tables are dropped
// at Close without a catalog-version bump, so a kept plan over one must not
// outlive it — the next run answers "does not exist", not the dropped rows.
func TestTemplateOverDroppedTempTableErrors(t *testing.T) {
	db := New()
	sess := db.NewSession()
	name, err := sess.CreateTempTable("sys_temp_a", []storage.Column{{Name: "sid", Kind: types.KindString}},
		func() [][]types.Value { return [][]types.Value{{types.NewString("m1")}, {types.NewString("m2")}} })
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT sid FROM " + name
	mustQuery(t, db, sql)
	mustQuery(t, db, sql)
	if res, hit := mustQuery(t, db, sql); !hit || len(res.Rows) != 2 {
		t.Fatalf("third run: template hit %v, %d rows; want a hit and 2 rows", hit, len(res.Rows))
	}
	v := db.CatalogVersion()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if db.CatalogVersion() != v {
		t.Fatal("closing the session bumped the catalog version; the test needs it not to")
	}
	if res, _, err := query(t, db, sql); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("query over the dropped temp table: err %v, %v; want \"does not exist\"", err, res)
	}
}

// TestTemplateReplansAfterDropAndRecreate: a table dropped and created again
// under the same name with another schema is another table; the text over it
// is planned again.
func TestTemplateReplansAfterDropAndRecreate(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a TEXT, b BIGINT)`)
	db.MustExec(`INSERT INTO t VALUES ('x', 1)`)
	const sql = `SELECT * FROM t`
	mustQuery(t, db, sql)
	mustQuery(t, db, sql)
	if _, hit := mustQuery(t, db, sql); !hit {
		t.Fatal("third run did not re-bind the template")
	}
	db.MustExec(`DROP TABLE t`)
	db.MustExec(`CREATE TABLE t (x BIGINT, y TEXT, z TEXT)`)
	db.MustExec(`INSERT INTO t VALUES (7, 'p', 'q')`)
	res, hit := mustQuery(t, db, sql)
	if hit {
		t.Error("the plan over the dropped table was reused")
	}
	if got := fmt.Sprint(res.Columns, res.Rows); got != "[x y z] [[7 p q]]" {
		t.Errorf("after re-create: %s, want [x y z] [[7 p q]]", got)
	}
}

// TestTemplateReplansAfterAnalyze: catalog changes that flip an access path
// — an index created, statistics gathered — come with a catalog bump, and
// the next run uses the new path. Without statistics a range predicate is
// guessed to keep a third of the rows (an index range scan once there is an
// index); the histogram says nine tenths (a heap scan).
func TestTemplateReplansAfterAnalyze(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (id TEXT, v BIGINT)`)
	for lo := 0; lo < 1000; lo += 100 {
		var vals []string
		for v := lo; v < lo+100; v++ {
			vals = append(vals, fmt.Sprintf("('r%d', %d)", v, v))
		}
		db.MustExec(`INSERT INTO t VALUES ` + strings.Join(vals, ", "))
	}
	const sql = `SELECT COUNT(*) FROM t WHERE v >= 100`
	for _, step := range []struct {
		change, path string
	}{
		{"", "seq scan on t"},
		{`CREATE INDEX t_v ON t (v)`, "index scan on t.v (range"},
		{`ANALYZE t`, "seq scan on t"},
	} {
		if step.change == "" {
			mustQuery(t, db, sql) // a statement's first tree is not kept
			mustQuery(t, db, sql)
		} else {
			db.MustExec(step.change)
			if _, hit := mustQuery(t, db, sql); hit {
				t.Errorf("%s: the next run re-bound the old template", step.change)
			}
		}
		res, hit := mustQuery(t, db, sql)
		if !hit {
			t.Errorf("after %q: a repeat planned afresh", step.change)
		}
		if n := res.Rows[0][0].Int(); n != 900 {
			t.Errorf("after %q: COUNT(*) = %d, want 900", step.change, n)
		}
		// EXPLAIN checks the kept tree out and describes it.
		if plan := explain(t, db, sql); !strings.Contains(plan, step.path) {
			t.Errorf("after %q the kept plan reads:\n%s\nwant %q", step.change, plan, step.path)
		}
		mustQuery(t, db, sql) // EXPLAIN never hands its tree back: keep one again
	}
}

// TestTemplateReplansOnRowDrift: a table that grows by more than a quarter
// since its plan was made gets planned again, and the estimate the plan
// shows moves with it; growth inside the bound keeps the template.
func TestTemplateReplansOnRowDrift(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (id TEXT, state TEXT)`)
	insert := func(from, to int) {
		var vals []string
		for i := from; i < to; i++ {
			vals = append(vals, fmt.Sprintf("('r%d', 'idle')", i))
		}
		db.MustExec(`INSERT INTO t VALUES ` + strings.Join(vals, ", "))
	}
	insert(0, 300)
	const sql = `SELECT id FROM t WHERE state = 'busy'`
	mustQuery(t, db, sql)
	if !strings.Contains(explain(t, db, sql), "est 100 rows") {
		t.Fatalf("plan:\n%s", explain(t, db, sql))
	}
	mustQuery(t, db, sql) // the statement's first tree was not kept; this one is
	insert(300, 360)      // +20 %: inside the bound
	if _, hit := mustQuery(t, db, sql); !hit {
		t.Error("growth inside the bound dropped the template")
	}
	insert(360, 600) // twice the rows the plan was made for
	if _, hit := mustQuery(t, db, sql); hit {
		t.Error("growth past the bound kept the template")
	}
	if plan := explain(t, db, sql); !strings.Contains(plan, "est 200 rows") {
		t.Errorf("after the growth the estimate did not move:\n%s", plan)
	}
}
