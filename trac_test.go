package trac

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func exampleDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	loadExample(t, db)
	return db
}

func loadExample(t *testing.T, db *DB) {
	t.Helper()
	db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`)
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	db.MustExec(`CREATE INDEX idx_act ON Activity (mach_id)`)
	if err := db.SetSourceColumn("Activity", "mach_id"); err != nil {
		t.Fatal(err)
	}
	if err := db.SetColumnDomain("Activity", "value", StringDomain("idle", "busy")); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO Activity VALUES
		('m1', 'idle', '2006-03-11 20:37:46'),
		('m2', 'busy', '2006-02-10 18:22:01'),
		('m3', 'idle', '2006-03-12 10:23:05')`)
	for sid, ts := range map[string]string{
		"m1": "2006-03-15 14:20:05",
		"m2": "2006-03-14 17:23:00",
		"m3": "2006-03-15 14:40:05",
	} {
		if err := db.Heartbeat(sid, ts); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicQuickstartFlow(t *testing.T) {
	db := exampleDB(t)
	sess := db.NewSession()
	defer sess.Close()

	rep, err := sess.RecencyReport(`SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'`)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Minimal {
		t.Errorf("expected minimal; reasons: %v", rep.Reasons)
	}
	if total := len(rep.Normal) + len(rep.Exceptional); total != 2 {
		t.Fatalf("relevant = %d", total)
	}
	if len(rep.Result.Rows) != 1 || rep.Result.Rows[0][0].Str() != "m1" {
		t.Errorf("result = %v", rep.Result.Rows)
	}
	out := rep.Render()
	if !strings.Contains(out, "Bound of inconsistency") {
		t.Errorf("render:\n%s", out)
	}
	// Temp tables queryable through the public API.
	if len(sess.TempTables()) != 2 {
		t.Errorf("temp tables = %v", sess.TempTables())
	}
	res, err := db.Query(`SELECT COUNT(*) FROM ` + rep.NormalTable)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
}

func TestNaiveOption(t *testing.T) {
	db := exampleDB(t)
	sess := db.NewSession()
	defer sess.Close()
	rep, err := sess.RecencyReport(`SELECT mach_id FROM Activity WHERE mach_id = 'm1'`, Naive())
	if err != nil {
		t.Fatal(err)
	}
	if total := len(rep.Normal) + len(rep.Exceptional); total != 3 {
		t.Errorf("naive relevant = %d, want all 3", total)
	}
}

func TestGenerateRecencyQuery(t *testing.T) {
	db := exampleDB(t)
	sql, minimal, reasons, err := db.GenerateRecencyQuery(`SELECT mach_id FROM Activity WHERE mach_id = 'm1' AND value = 'idle'`)
	if err != nil {
		t.Fatal(err)
	}
	if !minimal {
		t.Errorf("not minimal: %v", reasons)
	}
	if !strings.Contains(sql, "Heartbeat") || !strings.Contains(sql, "'m1'") {
		t.Errorf("recency SQL = %s", sql)
	}
	// Mixed predicate loses minimality.
	_, minimal, reasons, err = db.GenerateRecencyQuery(`SELECT mach_id FROM Activity WHERE mach_id = value`)
	if err != nil {
		t.Fatal(err)
	}
	if minimal || len(reasons) == 0 {
		t.Error("mixed predicate should lose minimality with a reason")
	}
}

func TestPreparedReport(t *testing.T) {
	db := exampleDB(t)
	pr, err := db.PrepareReport(`SELECT mach_id FROM Activity WHERE mach_id = 'm3'`)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Minimal() {
		t.Error("should be minimal")
	}
	if !strings.Contains(pr.RecencySQL(), "'m3'") {
		t.Errorf("recency SQL = %s", pr.RecencySQL())
	}
	sess := db.NewSession()
	defer sess.Close()
	for i := 0; i < 2; i++ {
		rep, err := pr.Execute(sess)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Normal)+len(rep.Exceptional) != 1 {
			t.Error("relevant != 1")
		}
	}
}

func TestHeartbeatUpsert(t *testing.T) {
	db := exampleDB(t)
	if err := db.Heartbeat("m1", "2006-03-16 00:00:00"); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Query(`SELECT recency FROM Heartbeat WHERE sid = 'm1'`)
	if res.Rows[0][0].String() != "2006-03-16 00:00:00" {
		t.Errorf("recency = %v", res.Rows[0][0])
	}
	// New source inserts.
	if err := db.Heartbeat("m9", "2006-03-16 00:00:00"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Query(`SELECT COUNT(*) FROM Heartbeat`)
	if res.Rows[0][0].Int() != 4 {
		t.Errorf("heartbeat rows = %v", res.Rows[0][0])
	}
	if err := db.Heartbeat("m1", "not a time"); err == nil {
		t.Error("bad timestamp should fail")
	}
}

func TestZThresholdOption(t *testing.T) {
	db := exampleDB(t)
	sess := db.NewSession()
	defer sess.Close()
	// With a tiny threshold nearly everything not at the mean is
	// exceptional.
	rep, err := sess.RecencyReport(`SELECT mach_id FROM Activity`, ZThreshold(0.1), WithoutTempTables())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Exceptional) == 0 {
		t.Error("tiny threshold should flag outliers")
	}
}

func TestHeartbeatSchemaOption(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT)`)
	db.MustExec(`CREATE TABLE Pulse (machine TEXT PRIMARY KEY, last_seen TIMESTAMP)`)
	db.SetSourceColumn("Activity", "mach_id")
	db.MustExec(`INSERT INTO Activity VALUES ('m1', 'idle')`)
	db.MustExec(`INSERT INTO Pulse VALUES ('m1', '2006-03-15 14:20:05')`)
	sess := db.NewSession()
	defer sess.Close()
	rep, err := sess.RecencyReport(`SELECT mach_id FROM Activity WHERE mach_id = 'm1'`,
		HeartbeatSchema("Pulse", "machine", "last_seen"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Normal) != 1 || rep.Normal[0].Sid != "m1" {
		t.Errorf("normal = %+v", rep.Normal)
	}
	want := time.Date(2006, 3, 15, 14, 20, 5, 0, time.UTC)
	if !rep.Normal[0].Recency.Equal(want) {
		t.Errorf("recency = %v", rep.Normal[0].Recency)
	}
}

func TestDomainsAndCatalog(t *testing.T) {
	db := exampleDB(t)
	if _, err := IntRange(5, 1); err == nil {
		t.Error("inverted IntRange should fail")
	}
	d, err := IntRange(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE T (src TEXT, slot BIGINT)`)
	if err := db.SetColumnDomain("T", "slot", d); err != nil {
		t.Fatal(err)
	}
	if err := db.SetColumnDomain("T", "nope", d); err == nil {
		t.Error("unknown column should fail")
	}
	if err := db.SetColumnDomain("NoTable", "x", d); err == nil {
		t.Error("unknown table should fail")
	}
	if err := db.SetSourceColumn("NoTable", "x"); err == nil {
		t.Error("unknown table should fail")
	}
	names := db.Catalog()
	if len(names) != 3 {
		t.Errorf("catalog = %v", names)
	}
}

func TestExplain(t *testing.T) {
	db := exampleDB(t)
	notes, err := db.Explain(`SELECT mach_id FROM Activity WHERE mach_id = 'm1'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(notes, "index scan") {
		t.Errorf("explain:\n%s", notes)
	}
}

func TestEmptyReportThroughPublicAPI(t *testing.T) {
	db := exampleDB(t)
	sess := db.NewSession()
	defer sess.Close()
	rep, err := sess.RecencyReport(`SELECT mach_id FROM Activity WHERE value = 'no_such'`)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty {
		t.Error("expected provably-empty relevant set")
	}
}

func TestMADDetectorOption(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT)`)
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	db.SetSourceColumn("Activity", "mach_id")
	// Five tight sources and one dead one: the classical z-score cannot
	// flag anything at N=6 (max |z| = 5/sqrt(6) ≈ 2.04 < 3), MAD can.
	for i, ts := range []string{
		"2006-03-15 14:20:00", "2006-03-15 14:21:00", "2006-03-15 14:22:00",
		"2006-03-15 14:23:00", "2006-03-15 14:24:00", "2006-03-10 00:00:00",
	} {
		sid := fmt.Sprintf("s%d", i+1)
		db.MustExec(`INSERT INTO Activity VALUES ('` + sid + `', 'idle')`)
		if err := db.Heartbeat(sid, ts); err != nil {
			t.Fatal(err)
		}
	}
	sess := db.NewSession()
	defer sess.Close()
	repZ, err := sess.RecencyReport(`SELECT mach_id FROM Activity`, WithoutTempTables())
	if err != nil {
		t.Fatal(err)
	}
	if len(repZ.Exceptional) != 0 {
		t.Errorf("z-score at N=6 should be masked, flagged %+v", repZ.Exceptional)
	}
	repM, err := sess.RecencyReport(`SELECT mach_id FROM Activity`, MADDetector(), WithoutTempTables())
	if err != nil {
		t.Fatal(err)
	}
	if len(repM.Exceptional) != 1 || repM.Exceptional[0].Sid != "s6" {
		t.Errorf("MAD should flag s6, got %+v", repM.Exceptional)
	}
	// The bound now describes the healthy majority only.
	if repM.Bound >= repZ.Bound {
		t.Errorf("MAD bound %v should be tighter than masked bound %v", repM.Bound, repZ.Bound)
	}
}

func TestCheckpointReopenDir(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	loadExample(t, db)
	if err := db.CheckpointDir(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// Recency reporting works immediately on the reopened database,
	// including source-column metadata and domains.
	sess := db2.NewSession()
	defer sess.Close()
	rep, err := sess.RecencyReport(`SELECT mach_id FROM Activity WHERE mach_id = 'm1' AND value = 'idle'`)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Minimal {
		t.Errorf("domain metadata lost across checkpoint/reopen: %v", rep.Reasons)
	}
	if n := len(rep.Normal) + len(rep.Exceptional); n != 1 {
		t.Errorf("relevant = %d", n)
	}
}

// TestSetSourceColumnBumpsCatalogVersion: a source column changes what the
// generator emits for every query over its table, so setting one moves the
// catalog version — on every shard alike — and no recency plan made before
// is reused.
func TestSetSourceColumnBumpsCatalogVersion(t *testing.T) {
	for _, shards := range []int{1, 3} {
		db := Open(WithShards(shards))
		db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`)
		versions := func() []uint64 {
			if db.Router() == nil {
				return []uint64{db.Engine().CatalogVersion()}
			}
			var out []uint64
			for i := 0; i < db.Shards(); i++ {
				out = append(out, db.Router().Shard(i).CatalogVersion())
			}
			return out
		}
		before := versions()
		if err := db.SetSourceColumn("Activity", "mach_id"); err != nil {
			t.Fatal(err)
		}
		after := versions()
		for i := range after {
			if after[i] <= before[i] || after[i] != after[0] {
				t.Errorf("shards=%d: catalog versions %v before SetSourceColumn, %v after; want each moved, all equal", shards, before, after)
				break
			}
		}
		db.Close()
	}
}
