package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Torn-file property tests: a crash can leave any byte-prefix of a file on
// disk (and, for logs, arbitrary garbage in the torn tail). Dumps must
// REJECT every strict prefix — a checkpoint is all-or-nothing — while the
// WAL must SALVAGE every prefix, recovering exactly the complete commits it
// contains and discarding the torn remainder.

func TestDirDumpRejectsEveryPrefix(t *testing.T) {
	// Some structural variety: an index, a primary key, NULLs, floats and
	// timestamps all sit in the dump whose prefixes are tried.
	db, dir := openTestDir(t)
	db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT, score FLOAT, at TIMESTAMP)`)
	db.MustExec(`CREATE INDEX ia ON Activity (mach_id)`)
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	for i := 0; i < 40; i++ {
		val := fmt.Sprintf("'v%d'", i)
		if i%5 == 0 {
			val = "NULL"
		}
		db.MustExec(fmt.Sprintf(
			`INSERT INTO Activity VALUES ('m%d', %s, %d.5, '2006-03-15 14:%02d:00')`,
			i%7, val, i, i%60))
	}
	db.MustExec(`INSERT INTO Heartbeat VALUES ('m1', '2006-03-15 14:20:05')`)
	if err := db.CheckpointDir(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	dumpPath := filepath.Join(dir, "dump.2")
	data, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(dumpPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if db, err := OpenDir(dir); err == nil {
			db.Close()
			t.Fatalf("v2 dump prefix of %d/%d bytes accepted", cut, len(data))
		}
	}
	// Restoring the full dump restores the database.
	if err := os.WriteFile(dumpPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := countRows(t, db2, "Activity"); got != 40 {
		t.Fatalf("restored dump rows = %d, want 40", got)
	}
}

// replayPrefixRows loads a WAL prefix into a fresh database and returns how
// many T rows came back, asserting they form the exact prefix 0..k-1.
func replayPrefixRows(t *testing.T, path string, data []byte) int {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db := New()
	if err := db.attachWAL(path); err != nil {
		t.Fatalf("torn tail must be salvaged, not rejected (%d bytes): %v", len(data), err)
	}
	defer db.detachWAL()
	if _, err := db.Catalog().Get("T"); err != nil {
		return 0 // the DDL commit itself was torn away
	}
	res, err := db.Query(`SELECT a FROM T ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		if row[0].Int() != int64(i) {
			t.Fatalf("%d-byte prefix recovered a non-prefix cut: slot %d = %v", len(data), i, row[0])
		}
	}
	return len(res.Rows)
}

func TestWALReplaySalvagesEveryTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.wal")
	db := walDB(t, path)
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	const commits = 10
	for i := 0; i < commits; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO T VALUES (%d)`, i))
	}
	if err := db.detachWAL(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	torn := filepath.Join(dir, "torn.wal")
	prev := 0
	for cut := 0; cut <= len(data); cut++ {
		k := replayPrefixRows(t, torn, data[:cut])
		if k < prev {
			t.Fatalf("recovered commits regressed from %d to %d at prefix %d", prev, k, cut)
		}
		prev = k
	}
	if prev != commits {
		t.Fatalf("full log recovered %d commits, want %d", prev, commits)
	}
}

func TestWALReplayTruncatesAtMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.wal")
	db := walDB(t, path)
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	for i := 0; i < 10; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO T VALUES (%d)`, i))
	}
	if err := db.detachWAL(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A flipped bit ANYWHERE in the record stream must cut recovery at the
	// last commit wholly before it — never replay past a failed CRC, and
	// never reject the whole log.
	torn := filepath.Join(dir, "flip.wal")
	for pos := int(walHeaderSize); pos < len(data); pos += 11 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x20
		k := replayPrefixRows(t, torn, mut)
		// Everything after the flip is discarded, so the flip position
		// bounds the recovered byte range: k can at most cover the commits
		// in data[:pos], which is itself at most what the full log holds.
		kAtPos := replayPrefixRows(t, torn, data[:pos])
		if k > kAtPos {
			t.Fatalf("flip at %d: recovered %d commits, but only %d precede the corruption",
				pos, k, kAtPos)
		}
	}

	// Recovery from a corrupt log leaves a usable, append-able database.
	mut := append([]byte(nil), data...)
	mut[len(data)/2] ^= 0x04
	if err := os.WriteFile(torn, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := walDB(t, torn)
	before := int(countRows(t, db2, "T"))
	db2.MustExec(`INSERT INTO T VALUES (1000)`)
	if err := db2.detachWAL(); err != nil {
		t.Fatal(err)
	}
	db3 := walDB(t, torn)
	defer db3.detachWAL()
	if got := int(countRows(t, db3, "T")); got != before+1 {
		t.Fatalf("post-repair append lost: %d rows, want %d", got, before+1)
	}
}
