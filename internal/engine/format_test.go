package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"trac/internal/crashfs"
	"trac/internal/storage"
	"trac/internal/types"
)

// formatDir holds the files one checkpoint of formatFixture writes: the
// MANIFEST, the dump, the spilled segment file, and the WAL the fixture's
// statements were logged to before the checkpoint swept it. They were
// written once and are never regenerated: TestCheckpointBytesAreFixed holds
// every later encoder to them byte for byte.
const formatDir = "testdata/checkpoint"

// formatFixture fills a database opened on a crashfs.Mem with one table of
// every kind the dump and segment codecs encode: Activity spills two
// four-row segments and keeps a three-row tail, and carries a CHECK, a
// finite domain, an int-range domain, a source column, an index, and a
// generic column (BIGINT g holds a TEXT value in its second segment and in
// the tail); Heartbeat stays a row tail with a primary key.
func formatFixture(t *testing.T, db *DB) {
	t.Helper()
	db.MustExec(`CREATE TABLE Activity (id BIGINT, mach_id TEXT, value TEXT, x DOUBLE, ok BOOLEAN, at TIMESTAMP, g BIGINT)`)
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	db.MustExec(`CREATE INDEX am ON Activity (mach_id)`)
	db.MustExec(`INSERT INTO Activity VALUES
		(0, 'm1', 'idle', 0.5, TRUE, '2006-03-15 14:20:05', 10),
		(1, 'm1', 'busy', -1.25, FALSE, '2006-03-15 14:21:00', NULL),
		(2, 'm2', 'idle', NULL, TRUE, '2006-03-15 14:22:00', 12),
		(3, 'm2', NULL, 3.0, NULL, NULL, 13),
		(4, 'm3', 'busy', 4.5, TRUE, '2006-03-16 00:00:00', 14),
		(5, 'm3', 'idle', 5.5, FALSE, '2006-03-16 00:00:01', 15)`)
	db.MustExec(`INSERT INTO Heartbeat VALUES ('m1', '2006-03-15 14:20:05'), ('m2', '2006-03-15 14:22:00'), ('m3', NULL)`)
	tbl, err := db.Catalog().Get("Activity")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.mgr.Begin()
	for _, vals := range [][]types.Value{
		{types.NewInt(6), types.NewString("m4"), types.NewString("idle"), types.NewFloat(6), types.NewBool(true), types.NewTimeNanos(1142467200000000000), types.NewString("six")},
		{types.NewInt(7), types.NewString("m4"), types.NewString("busy"), types.NewFloat(7), types.NewBool(false), types.NewTimeNanos(1142467201000000000), types.NewInt(17)},
		{types.NewInt(8), types.NewString("m5"), types.NewString("idle"), types.NewFloat(8), types.NewBool(true), types.NewTimeNanos(1142467202000000000), types.NewInt(18)},
		{types.NewInt(9), types.NewString("m5"), types.NewString("idle"), types.Null, types.NewBool(true), types.NewTimeNanos(1142467203000000000), types.NewString("it's")},
		{types.NewInt(10), types.NewString("m6"), types.NewString(""), types.NewFloat(-0.125), types.Null, types.NewTimeNanos(-1), types.NewInt(-9223372036854775808)},
	} {
		if err := tx.InsertRow(tbl, storage.NewRow(vals, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.AddCheck("Activity", `id >= 0`); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Schema.SetSourceColumn("mach_id"); err != nil {
		t.Fatal(err)
	}
	tbl.Schema.Columns[2].Domain = types.FiniteStringDomain("", "busy", "idle")
	rng, err := types.IntRangeDomain(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Schema.Columns[0].Domain = rng
}

// formatRows is every row of the fixture's tables, formatted.
func formatRows(t *testing.T, db *DB) []string {
	t.Helper()
	var out []string
	for _, q := range []string{`SELECT * FROM Activity ORDER BY id`, `SELECT * FROM Heartbeat ORDER BY sid`} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.Format())
	}
	return out
}

// memFiles reads every file under dir on m, keyed by its path below dir.
func memFiles(t *testing.T, m *crashfs.Mem, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	for _, sub := range []string{"", segDirName} {
		names, err := m.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			path := filepath.Join(dir, sub, name)
			info, err := m.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.IsDir() {
				continue
			}
			f, err := m.OpenFile(path, os.O_RDONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, info.Size())
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			files[filepath.Join(sub, name)] = buf
		}
	}
	return files
}

// TestCheckpointBytesAreFixed pins the on-disk formats: a checkpoint of
// formatFixture writes exactly the checked-in MANIFEST, dump and segment
// file, the fixture's statements log exactly the checked-in WAL, and OpenDir
// of the checked-in files returns the fixture's rows.
func TestCheckpointBytesAreFixed(t *testing.T) {
	defer func(old int) { ckptSpillRows = old }(ckptSpillRows)
	ckptSpillRows = 4

	m := crashfs.NewMem()
	db, err := OpenDir("db", WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	formatFixture(t, db)
	want := formatRows(t, db)
	got := memFiles(t, m, "db")
	wal := got["wal.1.log"]
	if err := db.CheckpointDir(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got = memFiles(t, m, "db")
	got["wal.1.log"] = wal
	delete(got, "wal.2.log") // the new epoch's log holds only its magic

	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if wantNames := []string{"MANIFEST", "dump.2", "seg/activity.2.seg", "wal.1.log"}; !slices.Equal(names, wantNames) {
		t.Fatalf("checkpoint wrote %v, want %v", names, wantNames)
	}
	fresh := crashfs.NewMem()
	if err := fresh.MkdirAll(filepath.Join("db", segDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		pinned, err := os.ReadFile(filepath.Join(formatDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[name], pinned) {
			t.Errorf("%s: wrote %d bytes that differ from the %d pinned ones\nwrote:  %x\npinned: %x", name, len(got[name]), len(pinned), got[name], pinned)
		}
		err = crashfs.WriteDurable(fresh, filepath.Join("db", name), func(f crashfs.File) error {
			_, err := f.Write(pinned)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	db2, err := OpenDir("db", WithFS(fresh), WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := formatRows(t, db2); !slices.Equal(got, want) {
		t.Errorf("the pinned files open to\n%s\nwant\n%s", got, want)
	}
}
