package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"trac/internal/codec"
	"trac/internal/crashfs"
	"trac/internal/storage"
	"trac/internal/types"
)

// walLog frames statements as a WAL body (the bytes after the magic): a
// commit record closes a transaction after every statement whose first byte
// is odd, and after the last. It returns the body and the transactions
// scanWAL should find in it.
func walLog(t *testing.T, stmts [][]byte) ([]byte, [][]string) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	var txns [][]string
	var open []string
	commit := func() {
		if err := writeWALRecord(w, walRecCommit, nil); err != nil {
			t.Fatal(err)
		}
		txns = append(txns, open)
		open = nil
	}
	for _, s := range stmts {
		if err := writeWALRecord(w, walRecStatement, s); err != nil {
			t.Fatal(err)
		}
		open = append(open, string(s))
		if len(s) > 0 && s[0]%2 == 1 {
			commit()
		}
	}
	if len(open) > 0 {
		commit()
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), txns
}

// FuzzScanWAL feeds arbitrary bytes to the WAL scanner: it must not panic,
// its valid end must lie within the input, and the prefix it calls valid
// must scan to the same transactions and the same end. The input, split at
// zero bytes into statements, is also framed by writeWALRecord, and must
// scan back to exactly those transactions with nothing torn.
func FuzzScanWAL(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("INSERT INTO T VALUES (1)\x00UPDATE T SET x = 2"))
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		txns, end := scanWAL(bytes.NewReader(data))
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("valid end %d outside an input of %d bytes", end, len(data))
		}
		again, end2 := scanWAL(bytes.NewReader(data[:end]))
		if end2 != end || !reflect.DeepEqual(again, txns) {
			t.Fatalf("the valid prefix rescans to %d txns ending at %d, not %d ending at %d", len(again), end2, len(txns), end)
		}

		log, want := walLog(t, bytes.Split(data, []byte{0}))
		got, end := scanWAL(bytes.NewReader(log))
		if end != int64(len(log)) || !reflect.DeepEqual(got, want) {
			t.Fatalf("framed log of %d bytes scans to %v ending at %d, want %v", len(log), got, end, want)
		}
	})
}

// FuzzReadManifest feeds arbitrary bytes to the manifest reader as the
// manifest file: it must not panic, and an epoch it finds is at least 1.
// writeManifest of any epoch from 1 up must read back as that epoch.
func FuzzReadManifest(f *testing.F) {
	valid := codec.Seal(manifestMagic, binary.AppendUvarint(nil, 7))
	f.Add(valid, uint64(7))
	f.Add([]byte{}, uint64(1))
	f.Add([]byte(manifestMagic+"\x00\x00\x00\x00\x00"), uint64(1<<63))
	f.Fuzz(func(t *testing.T, data []byte, epoch uint64) {
		fsys := crashfs.NewMem()
		const path = "MANIFEST"
		file, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
		if got, found, err := readManifest(fsys, path); err == nil && found && got == 0 {
			t.Fatalf("manifest %x read as epoch 0", data)
		}

		epoch = max(epoch, 1)
		if err := writeManifest(fsys, path, epoch); err != nil {
			t.Fatal(err)
		}
		got, found, err := readManifest(fsys, path)
		if err != nil || !found || got != epoch {
			t.Fatalf("epoch %d wrote and read back as %d (found %v): %v", epoch, got, found, err)
		}
	})
}

// openDump opens a database directory on a crashfs.Mem whose manifest names
// epoch 2 and whose dump.2 is body, sealed with the dump magic and a correct
// checksum.
func openDump(t *testing.T, body []byte) (*DB, error) {
	t.Helper()
	m := crashfs.NewMem()
	if err := m.MkdirAll(filepath.Join("db", segDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(m, filepath.Join("db", manifestName), 2); err != nil {
		t.Fatal(err)
	}
	if err := writeSealed(m, filepath.Join("db", dumpFileName(2)), dumpMagicV2, body); err != nil {
		t.Fatal(err)
	}
	return OpenDir("db", WithFS(m))
}

// hostileDumps are dump bodies whose checksums hold and whose counts claim
// far more than the dump holds: a table of 2^62 columns, a finite domain of
// 2^40 values, and 2^40 indexed columns.
func hostileDumps() map[string][]byte {
	table := func(fill func(a *codec.Appender)) []byte {
		var a codec.Appender
		a.Uvarint(2) // epoch
		a.Uvarint(1) // tables
		a.String("T")
		fill(&a)
		a.B = append(a.B, make([]byte, 16)...)
		return a.B
	}
	column := func(a *codec.Appender, domain types.DomainKind) {
		a.Uvarint(1)
		a.String("a")
		a.Byte(byte(types.KindInt))
		a.Bool(false)
		a.Byte(byte(domain))
		a.Byte(byte(types.KindInt))
	}
	return map[string][]byte{
		"2^62 columns": table(func(a *codec.Appender) { a.Uvarint(1 << 62) }),
		"2^40 domain values": table(func(a *codec.Appender) {
			column(a, types.DomainFinite)
			a.Uvarint(1 << 40)
		}),
		"2^40 index columns": table(func(a *codec.Appender) {
			column(a, types.DomainUnbounded)
			a.Varint(-1) // no source column
			a.Uvarint(0) // no checks
			a.Uvarint(1 << 40)
		}),
	}
}

// TestOpenDirRejectsHostileDumpCounts: a dump whose checksum holds but whose
// counts claim more elements than its bytes can hold fails OpenDir with an
// error, before anything is allocated for the claim.
func TestOpenDirRejectsHostileDumpCounts(t *testing.T) {
	for name, body := range hostileDumps() {
		if db, err := openDump(t, body); err == nil {
			db.Close()
			t.Errorf("%s: dump accepted", name)
		}
	}
}

// fuzzDumpRows turns data into rows of (id BIGINT, s TEXT, x DOUBLE, g
// BIGINT), one per zero-separated piece and at most 64: g is NULL for an
// empty piece, the piece as TEXT when its first byte is odd (so g is a
// generic column), and its length otherwise.
func fuzzDumpRows(data []byte) [][]types.Value {
	var rows [][]types.Value
	for i, piece := range bytes.SplitN(data, []byte{0}, 64) {
		g := types.NewInt(int64(len(piece)))
		switch {
		case len(piece) == 0:
			g = types.Null
		case piece[0]%2 == 1:
			g = types.NewString(string(piece))
		}
		rows = append(rows, []types.Value{types.NewInt(int64(i)), types.NewString(string(piece)), types.NewFloat(float64(len(piece)) / 3), g})
	}
	return rows
}

// FuzzLoadDump feeds arbitrary bytes to OpenDir as the body of a dump whose
// magic and checksum hold, so the fuzzer reaches the decoder: it must not
// panic, nor allocate more than a bound proportional to the input. The
// input, turned into rows, is also checkpointed (spilling four-row
// segments) and must reopen to the same rows.
func FuzzLoadDump(f *testing.F) {
	defer func(old int) { ckptSpillRows = old }(ckptSpillRows)
	ckptSpillRows = 4
	pinned, err := os.ReadFile(filepath.Join(formatDir, dumpFileName(2)))
	if err != nil {
		f.Fatal(err)
	}
	body, err := codec.Open(dumpMagicV2, pinned)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Add([]byte{})
	for _, body := range hostileDumps() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := openDump(t, data)
		runtime.ReadMemStats(&after)
		// A table's first row allocates a 1,024-slot tail window of up to
		// 48 bytes a slot for each column, and a column takes at least five
		// bytes of the dump.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+10<<10*len(data)); grew > bound {
			t.Fatalf("opening a dump of %d bytes allocated %d, over %d", len(data), grew, bound)
		}
		if err == nil {
			db.Close()
		}

		m := crashfs.NewMem()
		db, err = OpenDir("db", WithFS(m))
		if err != nil {
			t.Fatal(err)
		}
		db.MustExec(`CREATE TABLE T (id BIGINT, s TEXT, x DOUBLE, g BIGINT)`)
		tbl, err := db.Catalog().Get("T")
		if err != nil {
			t.Fatal(err)
		}
		tx := db.mgr.Begin()
		for _, vals := range fuzzDumpRows(data) {
			if err := tx.InsertRow(tbl, storage.NewRow(vals, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		const q = `SELECT * FROM T ORDER BY id`
		want, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CheckpointDir(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = OpenDir("db", WithFS(m))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		got, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("reopened to %v, want %v", got.Rows, want.Rows)
		}
	})
}
