package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"trac/internal/crashfs"
	"trac/internal/exec"
	"trac/internal/storage"
	"trac/internal/types"
)

// bulkInsert issues INSERTs of n rows into T(a BIGINT, src TEXT) starting
// at base, batched to keep statement counts sane.
func bulkInsert(t testing.TB, db *DB, table string, base, n int) {
	t.Helper()
	const batch = 500
	for off := 0; off < n; off += batch {
		lim := off + batch
		if lim > n {
			lim = n
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
		for i := off; i < lim; i++ {
			if i > off {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 's%d')", base+i, (base+i)%4)
		}
		db.MustExec(sb.String())
	}
}

func countRows(t *testing.T, db *DB, table string) int64 {
	t.Helper()
	res, err := db.Query(`SELECT COUNT(*) FROM ` + table)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int()
}

func TestOpenDirFreshWALOnly(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 1 || db.Dir() != dir {
		t.Fatalf("fresh dir epoch=%d dir=%q", db.Epoch(), db.Dir())
	}
	db.MustExec(`CREATE TABLE T (a BIGINT, src TEXT)`)
	db.MustExec(`INSERT INTO T VALUES (1, 's0'), (2, 's1')`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Before any checkpoint there is no manifest: recovery is WAL-only.
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
		t.Fatalf("manifest should not exist before first checkpoint: %v", err)
	}
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := countRows(t, db2, "T"); got != 2 {
		t.Fatalf("WAL-only recovery = %d rows, want 2", got)
	}
}

// TestZeroColumnCreateTableRejected: a CREATE TABLE of CHECKs alone is
// rejected before it reaches the WAL. Once logged, its rendered text did not
// parse back, so replay failed and the directory could not be reopened.
func TestZeroColumnCreateTableRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE T (a BIGINT, src TEXT)`)
	if _, err := db.Exec(`CREATE TABLE A (CHECK (''))`); err == nil {
		t.Fatal("a CREATE TABLE with no columns was accepted")
	}
	if _, err := db.Catalog().Get("A"); err == nil {
		t.Fatal("the rejected table is in the catalog")
	}
	db.MustExec(`INSERT INTO T VALUES (1, 's0')`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("reopen after a rejected CREATE TABLE: %v", err)
	}
	defer db2.Close()
	if got := countRows(t, db2, "T"); got != 1 {
		t.Fatalf("recovered %d rows, want 1", got)
	}
}

// TestFractionalTimestampSurvivesReplay pins that a TIMESTAMP literal's
// fractional seconds reach the WAL: the statement is logged as rendered, so a
// render that dropped the fraction would reopen a different value.
func TestFractionalTimestampSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE T (k TEXT, ts TIMESTAMP)`)
	db.MustExec(`INSERT INTO T VALUES ('a', TIMESTAMP '2006-03-15 14:00:00')`)
	db.MustExec(`INSERT INTO T VALUES ('b', TIMESTAMP '2006-03-15 14:00:00.25')`)
	const later = `SELECT k FROM T WHERE ts > '2006-03-15 14:00:00'`
	before, err := db.Query(later)
	if err != nil {
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
	after, err := db2.Query(later)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != 1 || len(after.Rows) != 1 || after.Rows[0][0].Str() != "b" {
		t.Fatalf("rows after 14:00:00: %v before close, %v after reopen; want [b] both times",
			before.Rows, after.Rows)
	}
}

func TestCheckpointDirSpillsAndRecoversLazily(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE Activity (a BIGINT, src TEXT)`)
	db.MustExec(`CREATE INDEX ia ON Activity (a)`)
	total := storage.DefaultSegmentSize + 300
	bulkInsert(t, db, "Activity", 0, total)
	// Deletions before the checkpoint: only the consistent visible cut may
	// be persisted.
	db.MustExec(`DELETE FROM Activity WHERE a < 100`)
	live := total - 100

	if err := db.CheckpointDir(); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 2 {
		t.Fatalf("epoch after checkpoint = %d, want 2", db.Epoch())
	}
	// New-epoch files exist; the old epoch's WAL is swept.
	for _, want := range []string{"MANIFEST", "dump.2", "wal.2.log", filepath.Join("seg", "activity.2.seg")} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("missing %s after checkpoint: %v", want, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.1.log")); !os.IsNotExist(err) {
		t.Fatal("old epoch WAL not cleaned up")
	}
	// The database stays writable across the swap.
	db.MustExec(`INSERT INTO Activity VALUES (999999, 's0')`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The new epoch's WAL holds only the post-checkpoint tail: the one
	// INSERT, none of the history the checkpoint spilled.
	wal, err := os.ReadFile(filepath.Join(dir, "wal.2.log"))
	if err != nil {
		t.Fatal(err)
	}
	if txns, _ := scanWAL(bytes.NewReader(wal[walHeaderSize:])); len(txns) != 1 ||
		len(txns[0]) != 1 || !strings.Contains(txns[0][0], "999999") {
		t.Fatalf("post-checkpoint WAL holds %q, want only the INSERT of 999999", txns)
	}

	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl, err := db2.Catalog().Get("Activity")
	if err != nil {
		t.Fatal(err)
	}
	// Recovery left the spilled bulk cold, but the index metadata is known.
	if !tbl.Spilled() {
		t.Fatal("spilled table should be cold after OpenDir")
	}
	if cols := tbl.IndexedColumns(); len(cols) != 1 || cols[0] != 0 {
		t.Fatalf("pre-hydration IndexedColumns = %v", cols)
	}
	if got := countRows(t, db2, "Activity"); got != int64(live)+1 {
		t.Fatalf("recovered rows = %d, want %d", got, live+1)
	}
	if tbl.Spilled() {
		t.Fatal("query should have hydrated the table")
	}
	// Point query through the recovered (pending) index.
	res, err := db2.Query(`SELECT src FROM Activity WHERE a = 4000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "s0" {
		t.Fatalf("indexed lookup after recovery = %v", res.Rows)
	}
	if got := countRows(t, db2, "Activity"); got != int64(live)+1 {
		t.Fatalf("post-hydration rows = %d, want %d", got, live+1)
	}
}

func TestCheckpointDirRepeatedEpochs(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE T (a BIGINT, src TEXT)`)
	for i := 0; i < 3; i++ {
		bulkInsert(t, db, "T", i*10, 10)
		if err := db.CheckpointDir(); err != nil {
			t.Fatal(err)
		}
	}
	if db.Epoch() != 4 {
		t.Fatalf("epoch = %d, want 4", db.Epoch())
	}
	bulkInsert(t, db, "T", 100, 5)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := countRows(t, db2, "T"); got != 35 {
		t.Fatalf("rows = %d, want 35", got)
	}
	if db2.Epoch() != 4 {
		t.Fatalf("recovered epoch = %d, want 4", db2.Epoch())
	}
}

func TestOpenDirRecoveryIsLazy(t *testing.T) {
	// Recovery must not read segment files: O(catalog + WAL tail), not
	// O(data). The counting FS records which paths are opened.
	m := crashfs.NewMem()
	cfs := &countingFS{FS: m}
	db, err := OpenDir("db", WithFS(cfs))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE T (a BIGINT, src TEXT)`)
	bulkInsert(t, db, "T", 0, storage.DefaultSegmentSize)
	if err := db.CheckpointDir(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	cfs.opened = nil
	db2, err := OpenDir("db", WithFS(cfs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, p := range cfs.opened {
		if strings.HasSuffix(p, ".seg") {
			t.Fatalf("OpenDir touched segment file %s; recovery must be lazy", p)
		}
	}
	// First query pays for hydration exactly once.
	if got := countRows(t, db2, "T"); got != int64(storage.DefaultSegmentSize) {
		t.Fatalf("rows = %d", got)
	}
	segOpens := 0
	for _, p := range cfs.opened {
		if strings.HasSuffix(p, ".seg") {
			segOpens++
		}
	}
	if segOpens != 1 {
		t.Fatalf("segment file opened %d times, want exactly 1", segOpens)
	}
}

// recoveryDir fills a durable directory with rows Activity rows. With tail >
// 0, all but the last tail rows are checkpointed first, leaving the steady
// state a running server leaves: sealed history in segment files, recent
// commits only in the WAL. With tail = 0 the WAL holds everything.
func recoveryDir(b *testing.B, rows, tail int) string {
	b.Helper()
	dir := b.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	db.MustExec(`CREATE TABLE Activity (a BIGINT, src TEXT)`)
	db.MustExec(`CREATE INDEX ia ON Activity (a)`)
	bulkInsert(b, db, "Activity", 0, rows-tail)
	if tail > 0 {
		if err := db.CheckpointDir(); err != nil {
			b.Fatal(err)
		}
		bulkInsert(b, db, "Activity", rows-tail, tail)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

func benchReopen(b *testing.B, dir string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := OpenDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryOpenWALReplay reopens a directory that was never
// checkpointed, so every committed statement is replayed.
func BenchmarkRecoveryOpenWALReplay(b *testing.B) {
	benchReopen(b, recoveryDir(b, 20_000, 0))
}

// BenchmarkRecoveryOpenCheckpointed reopens the same 20k rows checkpointed
// with a 200-row WAL tail: recovery is O(catalog + WAL tail), not O(data).
func BenchmarkRecoveryOpenCheckpointed(b *testing.B) {
	benchReopen(b, recoveryDir(b, 20_000, 200))
}

type countingFS struct {
	crashfs.FS
	opened []string
}

func (c *countingFS) OpenFile(path string, flag int, perm os.FileMode) (crashfs.File, error) {
	c.opened = append(c.opened, path)
	return c.FS.OpenFile(path, flag, perm)
}

func TestOpenDirVerifyDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE T (a BIGINT, src TEXT)`)
	bulkInsert(t, db, "T", 0, storage.DefaultSegmentSize)
	if err := db.CheckpointDir(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	segPath := filepath.Join(dir, "seg", "t.2.seg")
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(segPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenDir(dir, WithVerify()); err == nil {
		t.Fatal("verify mode must reject a corrupted segment file")
	}
	// Lazy mode opens fine (the catalog is intact); the corruption is
	// caught by Hydrate on first touch.
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl, _ := db2.Catalog().Get("T")
	if err := tbl.Hydrate(); err == nil {
		t.Fatal("hydrating a corrupted segment file must fail")
	}
}

func TestOpenDirRejectsCorruptManifestAndDump(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE T (a BIGINT, src TEXT)`)
	db.MustExec(`INSERT INTO T VALUES (1, 's0')`)
	if err := db.CheckpointDir(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	flip := func(path string, pos int) func() {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), raw...)
		if pos < 0 {
			pos = len(mut) + pos
		}
		mut[pos] ^= 0x08
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		return func() { os.WriteFile(path, raw, 0o644) }
	}

	restore := flip(filepath.Join(dir, manifestName), 9)
	if _, err := OpenDir(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	restore()
	restore = flip(filepath.Join(dir, "dump.2"), 12)
	if _, err := OpenDir(dir); err == nil {
		t.Fatal("corrupt dump accepted")
	}
	restore()
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := countRows(t, db2, "T"); got != 1 {
		t.Fatalf("restored dir rows = %d", got)
	}
}

func TestCheckpointDirPersistsChecksAndSourceColumn(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE M (a BIGINT, src TEXT, CHECK (a >= 0))`)
	mt, err := db.Catalog().Get("M")
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Schema.SetSourceColumn("src"); err != nil {
		t.Fatal(err)
	}
	db.Catalog().BumpVersion()
	db.MustExec(`INSERT INTO M VALUES (7, 's1')`)
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
	tbl, err := db2.Catalog().Get("M")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Schema.SourceColumn != 1 {
		t.Fatalf("source column = %d, want 1", tbl.Schema.SourceColumn)
	}
	if len(TableChecks(tbl)) != 1 {
		t.Fatalf("checks = %d, want 1", len(TableChecks(tbl)))
	}
	if _, err := db2.Exec(`INSERT INTO M VALUES (-1, 's1')`); err == nil {
		t.Fatal("recovered CHECK constraint not enforced")
	}
}

func TestOpenDirMemFSRoundTrip(t *testing.T) {
	m := crashfs.NewMem()
	db, err := OpenDir("d", WithFS(m), WithSyncWAL())
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE T (a BIGINT, src TEXT)`)
	db.MustExec(`INSERT INTO T VALUES (1, 's0'), (2, 's1'), (3, 's2')`)
	if err := db.CheckpointDir(); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO T VALUES (4, 's3')`)
	// Crash without Close: everything since the checkpoint was fsynced by
	// the group-committing WAL, so nothing may be lost.
	m.Recover()
	db2, err := OpenDir("d", WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := countRows(t, db2, "T"); got != 4 {
		t.Fatalf("post-crash rows = %d, want 4", got)
	}
}

// TestCheckpointDirSweepsStaleEpochsThroughFS: after a second checkpoint the
// directory holds one dump and one WAL, both of the current epoch. The sweep
// must go through the database's FS: on crashfs.Mem, a removal that reached
// the real filesystem instead would leave every old epoch behind.
func TestCheckpointDirSweepsStaleEpochsThroughFS(t *testing.T) {
	m := crashfs.NewMem()
	db, err := OpenDir("d", WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`CREATE TABLE T (a BIGINT, src TEXT)`)
	for i := 0; i < 2; i++ {
		bulkInsert(t, db, "T", i*10, 10)
		if err := db.CheckpointDir(); err != nil {
			t.Fatal(err)
		}
	}
	names, err := m.ReadDir("d")
	if err != nil {
		t.Fatal(err)
	}
	var epochs []string
	for _, name := range names {
		if strings.HasPrefix(name, "dump.") || strings.HasPrefix(name, "wal.") {
			epochs = append(epochs, name)
		}
	}
	sort.Strings(epochs) // Mem lists a directory in no particular order
	want := []string{dumpFileName(db.Epoch()), walFileName(db.Epoch())}
	if fmt.Sprint(epochs) != fmt.Sprint(want) {
		t.Fatalf("epoch files after two checkpoints = %v, want only %v", epochs, want)
	}
}

// TestOpenDirBumpsCatalogVersion: restoring a checkpoint's tables bypasses
// DDL, so loading the dump moves the catalog version itself. Left at the
// empty catalog's version, it would let a plan made against the empty
// catalog pass for one made against the restored tables.
func TestOpenDirBumpsCatalogVersion(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE M (a BIGINT, src TEXT)`)
	db.MustExec(`INSERT INTO M VALUES (7, 's1')`)
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
	if v, empty := db2.CatalogVersion(), New().CatalogVersion(); v == empty {
		t.Errorf("catalog version after restoring a checkpoint = %d, the empty catalog's", v)
	}
}

// TestTailWindowsMatchRowsAfterOpenDir: a table recovered by OpenDir — its
// checkpointed prefix spilled into a segment file, the rows written since
// replayed from the WAL into windows, which are rebuilt when the replayed
// DELETE first reads the table and the prefix is spliced in front — answers every query as a
// row-by-row pass over its visible versions does, over columns of every
// kind with NULLs, whatever reader the planner picks (a scan, a stat
// aggregate, an index probe).
func TestTailWindowsMatchRowsAfterOpenDir(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE W (id BIGINT, src TEXT, score DOUBLE, ok BOOLEAN, at TIMESTAMP)`)
	db.MustExec(`CREATE INDEX wi ON W (id)`)
	insert := func(lo, hi int) {
		for off := lo; off < hi; off += 500 {
			var sb strings.Builder
			sb.WriteString("INSERT INTO W VALUES ")
			for i := off; i < min(off+500, hi); i++ {
				if i > off {
					sb.WriteString(", ")
				}
				vals := []string{
					fmt.Sprint(i), fmt.Sprintf("'m%d'", (i/37)%20), fmt.Sprintf("%d.5", i%10),
					fmt.Sprint(i%3 == 0), fmt.Sprintf("'2006-03-%02d 10:00:00'", 1+i%28),
				}
				for c, every := range []int{0, 11, 5, 17, 13} {
					if every > 0 && i%every == 0 {
						vals[c] = "NULL"
					}
				}
				sb.WriteString("(" + strings.Join(vals, ", ") + ")")
			}
			db.MustExec(sb.String())
		}
	}
	insert(0, 4500)
	db.MustExec(`DELETE FROM W WHERE id >= 1000 AND id < 1300`)
	if err := db.CheckpointDir(); err != nil {
		t.Fatal(err)
	}
	insert(4500, 7100)
	db.MustExec(`DELETE FROM W WHERE src = 'm5' AND id >= 5000`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.Catalog().Get("W")
	if err != nil {
		t.Fatal(err)
	}
	heap := tbl.Snap()
	if len(heap.Segments) == 0 || len(heap.AppendTail(nil)) < 2 {
		t.Fatalf("recovered heap: %d segments, %d tail windows; want both", len(heap.Segments), len(heap.AppendTail(nil)))
	}
	snap := db.Manager().ReadSnapshot()
	reference := func(keep func(v []types.Value) bool) []string {
		var out []string
		for _, r := range tbl.Rows() {
			if snap.Visible(r) && keep(r.Values) {
				out = append(out, exec.RowKey(r.Values))
			}
		}
		sort.Strings(out)
		return out
	}
	for _, tc := range []struct {
		where string
		keep  func(v []types.Value) bool
	}{
		{"", func([]types.Value) bool { return true }},
		{"WHERE score >= 5 AND ok", func(v []types.Value) bool {
			return !v[2].IsNull() && v[2].Float() >= 5 && !v[3].IsNull() && v[3].Bool()
		}},
		{"WHERE src = 'm3' OR at IS NULL", func(v []types.Value) bool {
			return !v[1].IsNull() && v[1].Str() == "m3" || v[4].IsNull()
		}},
		{"WHERE id = 6001", func(v []types.Value) bool { return !v[0].IsNull() && v[0].Int() == 6001 }},
		{"WHERE id >= 4400", func(v []types.Value) bool { return !v[0].IsNull() && v[0].Int() >= 4400 }},
	} {
		res, err := db.Query("SELECT * FROM W " + tc.where)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			got[i] = exec.RowKey(r)
		}
		sort.Strings(got)
		if want := reference(tc.keep); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%q: %d rows, the row-by-row reference %d", tc.where, len(got), len(want))
		}
	}
	all := reference(func([]types.Value) bool { return true })
	if got := countRows(t, db, "W"); got != int64(len(all)) {
		t.Errorf("COUNT(*) = %d, reference %d", got, len(all))
	}
}
