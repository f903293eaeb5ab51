package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"trac/internal/crashfs"
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
	valid := append([]byte(manifestMagic), binary.AppendUvarint(nil, 7)...)
	valid = binary.LittleEndian.AppendUint32(valid, crc32.Checksum(valid, castagnoli))
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
