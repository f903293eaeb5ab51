package engine

import (
	"fmt"
	"strings"
	"testing"

	"trac/internal/planner"
	"trac/internal/sqlparser"
)

// paperDB builds the paper's Activity/Routing/Heartbeat schema with the
// Table 1 / Table 2 sample data.
func paperDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	loadPaperFixture(t, db)
	return db
}

// loadPaperFixture fills db — in-memory or directory-backed — with the
// paper's example tables.
func loadPaperFixture(t *testing.T, db *DB) {
	t.Helper()
	fixtures := []string{
		`CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`,
		`CREATE TABLE Routing (mach_id TEXT, neighbor TEXT, event_time TIMESTAMP)`,
		`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`,
		`CREATE INDEX idx_act_mach ON Activity (mach_id)`,
		`CREATE INDEX idx_rout_mach ON Routing (mach_id)`,
		`INSERT INTO Activity VALUES
			('m1', 'idle', TIMESTAMP '2006-03-11 20:37:46'),
			('m2', 'busy', TIMESTAMP '2006-02-10 18:22:01'),
			('m3', 'idle', TIMESTAMP '2006-03-12 10:23:05')`,
		`INSERT INTO Routing VALUES
			('m1', 'm3', TIMESTAMP '2006-03-12 23:20:06'),
			('m2', 'm3', TIMESTAMP '2006-02-10 03:34:21')`,
		`INSERT INTO Heartbeat VALUES
			('m1', TIMESTAMP '2006-03-15 14:20:05'),
			('m2', TIMESTAMP '2006-03-14 17:23:00'),
			('m3', TIMESTAMP '2006-03-15 14:40:05')`,
	}
	for _, sql := range fixtures {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("fixture %q: %v", sql, err)
		}
	}
}

func queryStrings(t *testing.T, db *DB, sql string) []string {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	var out []string
	for _, row := range res.Rows {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.String())
		}
		out = append(out, strings.Join(parts, ","))
	}
	return out
}

func TestPaperQ1SingleRelation(t *testing.T) {
	db := paperDB(t)
	got := queryStrings(t, db, `SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'`)
	if len(got) != 1 || got[0] != "m1" {
		t.Errorf("Q1 = %v, want [m1]", got)
	}
}

func TestPaperQ2Join(t *testing.T) {
	db := paperDB(t)
	got := queryStrings(t, db, `
		SELECT A.mach_id FROM Routing R, Activity A
		WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id`)
	if len(got) != 1 || got[0] != "m3" {
		t.Errorf("Q2 = %v, want [m3]", got)
	}
}

func TestSelectStarAndAliases(t *testing.T) {
	db := paperDB(t)
	res, err := db.Query(`SELECT * FROM Activity WHERE value = 'busy'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 || res.Columns[0] != "mach_id" {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "m2" {
		t.Errorf("rows = %v", res.Rows)
	}
	res, err = db.Query(`SELECT A.mach_id AS machine, A.value state FROM Activity A LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "machine" || res.Columns[1] != "state" {
		t.Errorf("aliased columns = %v", res.Columns)
	}
	if len(res.Rows) != 2 {
		t.Errorf("LIMIT ignored: %d rows", len(res.Rows))
	}
}

func TestAggregateQueries(t *testing.T) {
	db := paperDB(t)
	got := queryStrings(t, db, `SELECT COUNT(*) FROM Activity WHERE value = 'idle'`)
	if got[0] != "2" {
		t.Errorf("COUNT = %v", got)
	}
	got = queryStrings(t, db, `SELECT MIN(recency), MAX(recency) FROM Heartbeat`)
	if got[0] != "2006-03-14 17:23:00,2006-03-15 14:40:05" {
		t.Errorf("MIN/MAX = %v", got)
	}
}

func TestOrderByVariants(t *testing.T) {
	db := paperDB(t)
	got := queryStrings(t, db, `SELECT mach_id FROM Activity ORDER BY event_time DESC`)
	if strings.Join(got, " ") != "m3 m1 m2" {
		t.Errorf("order by time desc = %v", got)
	}
	got = queryStrings(t, db, `SELECT mach_id m FROM Activity ORDER BY m DESC`)
	if strings.Join(got, " ") != "m3 m2 m1" {
		t.Errorf("order by alias = %v", got)
	}
	got = queryStrings(t, db, `SELECT mach_id FROM Activity ORDER BY 1`)
	if strings.Join(got, " ") != "m1 m2 m3" {
		t.Errorf("order by position = %v", got)
	}
}

func TestDistinctAndUnion(t *testing.T) {
	db := paperDB(t)
	got := queryStrings(t, db, `SELECT DISTINCT value FROM Activity ORDER BY value`)
	if strings.Join(got, " ") != "busy idle" {
		t.Errorf("distinct = %v", got)
	}
	got = queryStrings(t, db, `
		SELECT mach_id FROM Activity WHERE value = 'idle'
		UNION SELECT mach_id FROM Routing WHERE neighbor = 'm3'
		ORDER BY mach_id`)
	if strings.Join(got, " ") != "m1 m2 m3" {
		t.Errorf("union = %v", got)
	}
}

func TestUpdateAndDelete(t *testing.T) {
	db := paperDB(t)
	n, err := db.Exec(`UPDATE Heartbeat SET recency = TIMESTAMP '2006-03-16 00:00:00' WHERE sid = 'm2'`)
	if err != nil || n != 1 {
		t.Fatalf("update: %d, %v", n, err)
	}
	got := queryStrings(t, db, `SELECT recency FROM Heartbeat WHERE sid = 'm2'`)
	if got[0] != "2006-03-16 00:00:00" {
		t.Errorf("after update = %v", got)
	}
	// Full count unchanged (update is delete+insert under MVCC but only one
	// visible version).
	got = queryStrings(t, db, `SELECT COUNT(*) FROM Heartbeat`)
	if got[0] != "3" {
		t.Errorf("count after update = %v", got)
	}
	n, err = db.Exec(`DELETE FROM Activity WHERE value = 'busy'`)
	if err != nil || n != 1 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	got = queryStrings(t, db, `SELECT COUNT(*) FROM Activity`)
	if got[0] != "2" {
		t.Errorf("count after delete = %v", got)
	}
}

func TestPrimaryKeyEnforced(t *testing.T) {
	db := paperDB(t)
	if _, err := db.Exec(`INSERT INTO Heartbeat VALUES ('m1', TIMESTAMP '2006-03-16 00:00:00')`); err == nil {
		t.Error("duplicate PK insert should fail")
	}
	// After deleting, the key is insertable again.
	db.MustExec(`DELETE FROM Heartbeat WHERE sid = 'm1'`)
	if _, err := db.Exec(`INSERT INTO Heartbeat VALUES ('m1', TIMESTAMP '2006-03-16 00:00:00')`); err != nil {
		t.Errorf("insert after delete: %v", err)
	}
}

// The primary-key check sees only the writer's snapshot, so two overlapping
// transactions can commit one key twice. A DISTINCT block anchored on the
// table must still answer a set: the semi-join plan keeps its Distinct even
// with the key projected.
func TestAnchoredDistinctSurvivesDuplicateKeys(t *testing.T) {
	db := paperDB(t)
	b1, b2 := db.BeginBatch(), db.BeginBatch()
	for _, b := range []*Batch{b1, b2} {
		if _, err := b.Exec(`INSERT INTO Heartbeat VALUES ('m9', TIMESTAMP '2006-03-16 00:00:00')`); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []*Batch{b1, b2} {
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := queryStrings(t, db, `SELECT sid FROM Heartbeat WHERE sid = 'm9'`); len(got) != 2 {
		t.Skipf("the engine now refuses the second commit (%v); this guard is moot", got)
	}
	db.MustExec(`INSERT INTO Activity VALUES ('m9', 'idle', TIMESTAMP '2006-03-16 00:00:00')`)
	for _, sql := range []string{
		`SELECT DISTINCT H.sid, H.recency FROM Heartbeat H, Activity A WHERE H.sid = A.mach_id AND A.value = 'idle'`,
		`SELECT DISTINCT H.sid, H.recency FROM Heartbeat H, Activity A WHERE A.value = 'idle'`,
		`SELECT DISTINCT H.sid, H.recency FROM Heartbeat H, Activity A WHERE H.sid = A.mach_id
		 UNION SELECT DISTINCT H.sid, H.recency FROM Heartbeat H, Routing R WHERE H.sid = R.mach_id`,
	} {
		got := queryStrings(t, db, sql)
		seen := 0
		for _, g := range got {
			if strings.HasPrefix(g, "m9") {
				seen++
			}
		}
		if seen != 1 {
			t.Errorf("%s\nreports m9 %d times: %v", sql, seen, got)
		}
	}
}

// An UPDATE leaves a dead version behind; the planner's row estimate must
// count the table's rows, not its versions.
func TestLiveRowsSurviveUpdates(t *testing.T) {
	db := paperDB(t)
	hb, _ := db.Catalog().Get("Heartbeat")
	live := hb.LiveRows()
	for i := 0; i < 25; i++ {
		db.MustExec(`UPDATE Heartbeat SET recency = TIMESTAMP '2006-03-16 00:00:00'`)
	}
	if hb.NumVersions() != live*26 || hb.LiveRows() != live {
		t.Errorf("versions = %d, live = %d; want %d and %d", hb.NumVersions(), hb.LiveRows(), live*26, live)
	}
	db.MustExec(`DELETE FROM Heartbeat WHERE sid = 'm1'`)
	if hb.LiveRows() != live-1 {
		t.Errorf("live after delete = %d, want %d", hb.LiveRows(), live-1)
	}
}

func TestInsertColumnSubsetAndCoercion(t *testing.T) {
	db := paperDB(t)
	// String literal into TIMESTAMP column coerces.
	if _, err := db.Exec(`INSERT INTO Activity (mach_id, value, event_time) VALUES ('m4', 'idle', '2006-03-13 08:00:00')`); err != nil {
		t.Fatalf("coerced insert: %v", err)
	}
	got := queryStrings(t, db, `SELECT event_time FROM Activity WHERE mach_id = 'm4'`)
	if got[0] != "2006-03-13 08:00:00" {
		t.Errorf("coerced value = %v", got)
	}
	// Column subset leaves others NULL.
	if _, err := db.Exec(`INSERT INTO Activity (mach_id) VALUES ('m5')`); err != nil {
		t.Fatalf("subset insert: %v", err)
	}
	res, _ := db.Query(`SELECT value FROM Activity WHERE mach_id = 'm5'`)
	if !res.Rows[0][0].IsNull() {
		t.Errorf("missing column should be NULL, got %v", res.Rows[0][0])
	}
	// Type error rejected.
	if _, err := db.Exec(`INSERT INTO Heartbeat VALUES ('m9', 42)`); err == nil {
		t.Error("int into TIMESTAMP should fail")
	}
}

func TestQuerySnapshotIsolation(t *testing.T) {
	db := paperDB(t)
	snap := db.Snapshot()
	db.MustExec(`INSERT INTO Activity VALUES ('m7', 'idle', TIMESTAMP '2006-03-13 00:00:00')`)
	res, err := db.QueryAt(`SELECT COUNT(*) FROM Activity`, snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("old snapshot sees %v rows", res.Rows[0][0])
	}
	res, _ = db.Query(`SELECT COUNT(*) FROM Activity`)
	if res.Rows[0][0].Int() != 4 {
		t.Errorf("new snapshot sees %v rows", res.Rows[0][0])
	}
}

func TestExplainShowsIndexUse(t *testing.T) {
	db := paperDB(t)
	notes, err := db.ExplainAt(`SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'`, db.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(notes, "index scan") {
		t.Errorf("expected index scan in plan, got:\n%s", notes)
	}
	notes, _ = db.ExplainAt(`SELECT mach_id FROM Activity WHERE value = 'idle'`, db.Snapshot())
	if !strings.Contains(notes, "seq scan") {
		t.Errorf("expected seq scan in plan, got:\n%s", notes)
	}
}

func TestConstantSelect(t *testing.T) {
	db := New()
	got := queryStrings(t, db, `SELECT 1 + 1, 'x'`)
	if len(got) != 1 || got[0] != "2,x" {
		t.Errorf("constant select = %v", got)
	}
}

func TestErrorPaths(t *testing.T) {
	db := paperDB(t)
	bad := []string{
		`SELECT nope FROM Activity`,
		`SELECT mach_id FROM NoSuchTable`,
		`INSERT INTO NoSuchTable VALUES (1)`,
		`UPDATE Activity SET nope = 1`,
		`DELETE FROM NoSuchTable`,
		`CREATE TABLE Activity (x TEXT)`, // duplicate
		`DROP TABLE NoSuchTable`,
		`CREATE INDEX i ON NoSuchTable (x)`,
		`SELECT COUNT(*), mach_id FROM Activity`,     // mixed agg/plain
		`SELECT mach_id FROM Activity a, Activity a`, // dup binding
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
}

func TestResultFormat(t *testing.T) {
	db := paperDB(t)
	res, _ := db.Query(`SELECT mach_id, value FROM Activity WHERE mach_id = 'm1'`)
	out := res.Format()
	for _, want := range []string{"mach_id", "value", "m1", "idle", "(1 rows)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

// TestKeyedWriteProbesShortestChain pins that an UPDATE/DELETE whose WHERE
// pins two indexed columns reads the shorter chain: one machine's 1,000 jobs
// sit under schedMachineId, one version under each jobId. Which index it
// reads must not depend on map order, so every one of 50 writes — each to
// jobs not written before, as the loader routes a job once — visits exactly
// the versions its keys name.
func TestKeyedWriteProbesShortestChain(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE S (schedMachineId TEXT, jobId TEXT, remoteMachineId TEXT)`)
	db.MustExec(`CREATE INDEX idx_s_job ON S (jobId)`)
	db.MustExec(`CREATE INDEX idx_s_sched ON S (schedMachineId)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO S VALUES `)
	for j := 0; j < 1000; j++ {
		if j > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "('m1', 'j%d', NULL)", j)
	}
	db.MustExec(sb.String())
	tbl, err := db.Catalog().Get("S")
	if err != nil {
		t.Fatal(err)
	}
	visits := func(sql string, wantRows int) int64 {
		t.Helper()
		before := tbl.VersionsVisited()
		if n := db.MustExec(sql); n != wantRows {
			t.Fatalf("%s touched %d rows, want %d", sql, n, wantRows)
		}
		return tbl.VersionsVisited() - before
	}
	for i := 0; i < 50; i++ {
		eq := fmt.Sprintf(`UPDATE S SET remoteMachineId = 'r' WHERE schedMachineId = 'm1' AND jobId = 'j%d'`, i)
		if v := visits(eq, 1); v != 1 {
			t.Fatalf("write %d visited %d versions, want 1", i, v)
		}
		in := fmt.Sprintf(`UPDATE S SET remoteMachineId = 'r' WHERE jobId IN ('j%d', 'j%d') AND schedMachineId IN ('m1', 'm2')`,
			100+2*i, 101+2*i)
		if v := visits(in, 2); v != 2 {
			t.Fatalf("IN write %d visited %d versions, want 2", i, v)
		}
	}
	if v := visits(`DELETE FROM S WHERE schedMachineId = 'm1' AND jobId = 'nope'`, 0); v != 0 {
		t.Fatalf("a probe with no chain visited %d versions, want 0", v)
	}
	if v := visits(`DELETE FROM S WHERE schedMachineId = 'm1' AND jobId = 'j999'`, 1); v != 1 {
		t.Fatalf("keyed DELETE visited %d versions, want 1", v)
	}
}

// TestKeyedWriteTieTakesLowerColumn pins the tie rule: chains of equal
// length go to the lower column, whatever order the indexes were built in.
func TestKeyedWriteTieTakesLowerColumn(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE T (a TEXT, b TEXT)`)
	db.MustExec(`CREATE INDEX idx_t_b ON T (b)`)
	db.MustExec(`CREATE INDEX idx_t_a ON T (a)`)
	db.MustExec(`INSERT INTO T VALUES ('x', 'p'), ('y', 'q')`)
	tbl, err := db.Catalog().Get("T")
	if err != nil {
		t.Fatal(err)
	}
	where, err := sqlparser.ParseExpr(`b = 'q' AND a = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rows := candidateRows(tbl, planner.EqualityProbes(tbl, where), db.Snapshot().Seq)
		if len(rows) != 1 || rows[0].Values[0].Str() != "x" {
			t.Fatalf("tie read %v, want the chain of a = 'x'", rows)
		}
	}
}
