package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"trac/internal/codec"
	"trac/internal/storage"
	"trac/internal/types"
)

// openTestDir opens a fresh durable directory.
func openTestDir(t *testing.T) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return db, dir
}

// checkpointAndReopen is the durability round trip: CheckpointDir, Close,
// OpenDir.
func checkpointAndReopen(t *testing.T, db *DB) *DB {
	t.Helper()
	if err := db.CheckpointDir(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(db.Dir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	return db2
}

func TestCheckpointRoundTrip(t *testing.T) {
	db, _ := openTestDir(t)
	loadPaperFixture(t, db)
	// Add a check, a source column, and some MVCC churn (update + delete) so
	// the checkpoint must compact history.
	if err := db.AddCheck("Routing", `neighbor <> mach_id`); err != nil {
		t.Fatal(err)
	}
	act, _ := db.Catalog().Get("Activity")
	if err := act.Schema.SetSourceColumn("mach_id"); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`UPDATE Heartbeat SET recency = '2006-03-16 00:00:00' WHERE sid = 'm1'`)
	db.MustExec(`INSERT INTO Activity VALUES ('m9', 'idle', '2006-03-13 00:00:00')`)
	db.MustExec(`DELETE FROM Activity WHERE mach_id = 'm9'`)

	queries := []string{
		`SELECT COUNT(*) FROM Activity`,
		`SELECT COUNT(*) FROM Routing`,
		`SELECT COUNT(*) FROM Heartbeat`,
		`SELECT recency FROM Heartbeat WHERE sid = 'm1'`,
		`SELECT mach_id FROM Activity WHERE value = 'idle' ORDER BY mach_id`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Format()
	}

	db2 := checkpointAndReopen(t, db)

	// Same visible data.
	for i, q := range queries {
		res, err := db2.Query(q)
		if err != nil {
			t.Fatalf("reopened DB query %q: %v", q, err)
		}
		if got := res.Format(); got != want[i] {
			t.Errorf("query %q differs:\noriginal:\n%s\nreopened:\n%s", q, want[i], got)
		}
	}

	// MVCC history was compacted: the reopened Activity heap has exactly the
	// visible versions (3), not the insert+delete churn.
	act2, _ := db2.Catalog().Get("Activity")
	if act2.NumVersions() != 3 {
		t.Errorf("reopened heap has %d versions, want 3 (compacted)", act2.NumVersions())
	}

	// Metadata survived: source column, checks, indexes, PK.
	if act2.Schema.SourceColumn != 0 {
		t.Errorf("source column = %d, want 0", act2.Schema.SourceColumn)
	}
	rout2, _ := db2.Catalog().Get("Routing")
	if len(rout2.Schema.Checks) != 1 {
		t.Errorf("checks lost: %d", len(rout2.Schema.Checks))
	}
	if _, err := db2.Exec(`INSERT INTO Routing VALUES ('mX', 'mX', '2006-03-16 00:00:00')`); err == nil {
		t.Error("check not enforced after reopen")
	}
	if act2.Index(0) == nil {
		t.Error("Activity index lost")
	}
	hb2, _ := db2.Catalog().Get("Heartbeat")
	if !hb2.Schema.Columns[0].PrimaryKey {
		t.Error("primary key flag lost")
	}
	if _, err := db2.Exec(`INSERT INTO Heartbeat VALUES ('m1', '2006-03-17 00:00:00')`); err == nil {
		t.Error("PK not enforced after reopen")
	}

	// The reopened DB keeps working: inserts, updates, queries.
	db2.MustExec(`INSERT INTO Activity VALUES ('m7', 'busy', '2006-03-14 00:00:00')`)
	res, _ := db2.Query(`SELECT COUNT(*) FROM Activity`)
	if res.Rows[0][0].Int() != 4 {
		t.Errorf("post-reopen insert: %v", res.Rows[0][0])
	}
}

// TestCheckpointLeavesOutSessionTempTables: a temp table lives until its
// session closes, not beyond the process — a checkpoint taken while a
// session holds one must not make it permanent (its name would collide with
// the next process's first temp table).
func TestCheckpointLeavesOutSessionTempTables(t *testing.T) {
	db, _ := openTestDir(t)
	loadPaperFixture(t, db)
	sess := db.NewSession()
	cols := []storage.Column{{Name: "sid", Kind: types.KindString}}
	name, err := sess.CreateTempTable("sys_temp_a", cols, func() [][]types.Value { return [][]types.Value{{types.NewString("m1")}} })
	if err != nil {
		t.Fatal(err)
	}
	db2 := checkpointAndReopen(t, db)
	if _, err := db2.Catalog().Get(name); err == nil {
		t.Fatalf("temp table %s survived the checkpoint", name)
	}
	if _, err := db2.NewSession().CreateTempTable("sys_temp_a", cols, nil); err != nil {
		t.Fatalf("first temp table after reopen: %v", err)
	}
}

// TestCheckpointIsSnapshotConsistent: a writer committing two-table batches
// beside the checkpoints must never tear one. Every batch inserts an
// Activity row and moves Heartbeat m2 to the same timestamp, so in any
// consistent state the newest 'mw' row and m2's recency agree. Each
// checkpointed directory is copied while the writer is still appending to
// its log — a crash image — and recovered on the side.
func TestCheckpointIsSnapshotConsistent(t *testing.T) {
	db, dir := openTestDir(t)
	loadPaperFixture(t, db)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ts := fmt.Sprintf("'2006-03-17 %02d:%02d:%02d'", i/3600%24, i/60%60, i%60)
			b := db.BeginBatch()
			b.Exec(`INSERT INTO Activity VALUES ('mw', 'busy', ` + ts + `)`)
			b.Exec(`UPDATE Heartbeat SET recency = ` + ts + ` WHERE sid = 'm2'`)
			b.Commit()
		}
	}()
	for i := 0; i < 5; i++ {
		if err := db.CheckpointDir(); err != nil {
			t.Fatal(err)
		}
		image := t.TempDir()
		copyDir(t, dir, image)
		db2, err := OpenDir(image)
		if err != nil {
			t.Fatal(err)
		}
		// Updates never add rows.
		if got := countRows(t, db2, "Heartbeat"); got != 3 {
			t.Fatalf("torn checkpoint: %d heartbeat rows", got)
		}
		newest := queryStrings(t, db2, `SELECT MAX(event_time) FROM Activity WHERE mach_id = 'mw'`)
		recency := queryStrings(t, db2, `SELECT recency FROM Heartbeat WHERE sid = 'm2'`)
		if newest[0] != "NULL" && newest[0] != recency[0] {
			t.Fatalf("torn batch: newest mw row at %s, m2 recency %s", newest[0], recency[0])
		}
		db2.Close()
	}
	close(stop)
	<-done
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// copyDir copies the files under src to dst as they are right now.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointAllValueKindsAndDomains(t *testing.T) {
	db, _ := openTestDir(t)
	db.MustExec(`CREATE TABLE K (b BOOLEAN, i BIGINT, f DOUBLE, s TEXT, ts TIMESTAMP)`)
	db.MustExec(`INSERT INTO K VALUES (TRUE, -42, 2.5, 'it''s', '2006-03-15 14:20:05')`)
	db.MustExec(`INSERT INTO K VALUES (FALSE, 9223372036854775807, -0.125, '', '1970-01-01 00:00:00')`)
	db.MustExec(`INSERT INTO K (i) VALUES (1)`) // NULLs in every other column

	// Domains of every kind on the schema.
	tbl, _ := db.Catalog().Get("K")
	tbl.Schema.Columns[3].Domain = types.FiniteStringDomain("", "it's", "x")
	rng, err := types.IntRangeDomain(-100, 9223372036854775807)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Schema.Columns[1].Domain = rng

	const q = `SELECT b, i, f, s, ts FROM K ORDER BY i`
	a, _ := db.Query(q)
	db2 := checkpointAndReopen(t, db)
	b, err := db2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != b.Format() {
		t.Errorf("value round trip differs:\n%s\nvs\n%s", a.Format(), b.Format())
	}
	tbl2, _ := db2.Catalog().Get("K")
	if tbl2.Schema.Columns[3].Domain.Kind != types.DomainFinite {
		t.Error("finite domain lost")
	}
	if tbl2.Schema.Columns[1].Domain.Kind != types.DomainIntRange {
		t.Error("int-range domain lost")
	}
	if !tbl2.Schema.Columns[3].Domain.Contains(types.NewString("it's")) {
		t.Error("finite domain members lost")
	}
}

// TestOpenDirRejectsForeignDump: a dump whose checksum holds but whose magic
// or table count does not is refused, not half-loaded.
func TestOpenDirRejectsForeignDump(t *testing.T) {
	db, dir := openTestDir(t)
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	if err := db.CheckpointDir(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	dumpPath := filepath.Join(dir, "dump.2")
	good, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	body := good[:len(good)-4]
	epochAndCount := len(dumpMagicV2) + 1 // one-byte uvarint epoch, then the table count
	for name, mutate := range map[string]func([]byte){
		"bad magic":           func(b []byte) { copy(b, "NOTADUMP") },
		"corrupt table count": func(b []byte) { b[epochAndCount] = 0x7f },
	} {
		mut := bytes.Clone(body)
		mutate(mut)
		mut = binary.LittleEndian.AppendUint32(mut, codec.Checksum(mut))
		if err := os.WriteFile(dumpPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if db, err := OpenDir(dir); err == nil {
			db.Close()
			t.Errorf("%s: dump accepted", name)
		}
	}
}

func TestOpenDirErrorPaths(t *testing.T) {
	// A directory cannot be created beneath a regular file.
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := OpenDir(filepath.Join(file, "db")); err == nil {
		db.Close()
		t.Error("unwritable path should fail")
	}
	// A database that was never opened from a directory has nowhere to
	// checkpoint to.
	if err := New().CheckpointDir(); err == nil {
		t.Error("CheckpointDir without OpenDir should fail")
	}
}

func TestAccessors(t *testing.T) {
	db := New()
	if db.Manager() == nil || db.Planner() == nil {
		t.Error("accessors returned nil")
	}
	sess := db.NewSession()
	if sess.DB() != db {
		t.Error("Session.DB() wrong")
	}
	sess.Close()
}

func TestCoerceToColumnMore(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE C (i BIGINT, f DOUBLE, b BOOLEAN)`)
	// Float literal with integral value into BIGINT.
	if _, err := db.Exec(`INSERT INTO C VALUES (3.0, 2, TRUE)`); err != nil {
		t.Fatalf("integral float into BIGINT: %v", err)
	}
	// Non-integral float into BIGINT rejected.
	if _, err := db.Exec(`INSERT INTO C VALUES (3.5, 2, TRUE)`); err == nil {
		t.Error("non-integral float into BIGINT should fail")
	}
	// Bool into BIGINT rejected.
	if _, err := db.Exec(`INSERT INTO C VALUES (TRUE, 2, TRUE)`); err == nil {
		t.Error("bool into BIGINT should fail")
	}
	res, _ := db.Query(`SELECT i, f FROM C`)
	if res.Rows[0][0].Int() != 3 || res.Rows[0][1].Float() != 2 {
		t.Errorf("coerced row = %v", res.Rows[0])
	}
}
