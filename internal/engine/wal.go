package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"trac/internal/codec"
	"trac/internal/crashfs"
	"trac/internal/sqlparser"
)

// WAL is a logical write-ahead log: every SQL mutation that commits through
// the engine (Exec autocommits and Batches) is appended as its SQL text,
// with an explicit commit record terminating each transaction. Recovery
// replays complete transactions and truncates a torn tail.
//
// On-disk format (version 2):
//
//	magic "TRACWAL2"
//	records, each:
//	  uint32 LE  n      (1 + payload length; bounded by walMaxRecord)
//	  uint32 LE  crc    (CRC32C of type byte + payload)
//	  byte       type   ('S' statement, 'C' commit)
//	  payload           (the SQL text; empty for commit)
//
// A record that fails to parse — short header, absurd length, checksum
// mismatch, truncated payload — marks the torn tail: everything from the
// last complete commit record onward is discarded AND physically truncated
// on open, so the file never accumulates garbage between the valid prefix
// and new appends. A checksum failure mid-log is treated the same way: the
// log's only durability contract is its valid prefix.
//
// Durability modes: with Sync unset, commits are flushed to the OS but not
// fsynced (simulation workloads). With Sync set, every commit is fsynced
// before the commit call returns — batched across concurrent committers by
// a leader/follower group-commit protocol, so k simultaneous commits cost
// one fsync, not k. A failed fsync poisons the WAL permanently: the first
// error is sticky and every later append or checkpoint reports it, because
// after a failed fsync the kernel may have dropped the dirty pages and the
// file's durable contents are unknowable (the postgres fsyncgate lesson).
//
// Scope: only SQL-level mutations are logged. Direct transaction-manager
// inserts (bulk loaders, session temp tables) and API-level metadata
// changes (SetSourceColumn, domains) bypass the log by design — they belong
// in the checkpoint dump.
type WAL struct {
	mu   sync.Mutex
	fs   crashfs.FS
	f    crashfs.File
	w    *bufio.Writer
	path string
	// Sync forces an fsync before each commit returns (durability over
	// throughput; off by default for simulation workloads). Group commit
	// batches the fsyncs across concurrent committers.
	Sync bool

	// Group-commit state. appended counts commit groups flushed to the OS
	// file; synced counts groups known durable. A committer waits until
	// synced covers its own group, electing itself fsync leader when no
	// sync is in flight; one leader fsync covers every group flushed
	// before it started.
	gmu      sync.Mutex
	gcond    *sync.Cond
	appended uint64
	synced   uint64
	syncing  bool
	perr     error // sticky poison; set on any fsync/write failure
}

const (
	walMagic      = "TRACWAL2"
	walHeaderSize = int64(len(walMagic))
	walMaxRecord  = 1 << 26

	walRecStatement = byte('S')
	walRecCommit    = byte('C')
)

// ErrWALPoisoned marks a WAL that observed an fsync (or write) failure:
// its durable contents are unknowable, so every subsequent append and
// checkpoint fails with this error. Recovery requires reopening the
// database from disk.
var ErrWALPoisoned = errors.New("engine: WAL poisoned by earlier I/O failure")

// attachWAL replays any complete transactions already in the file at path
// (creating it if absent), truncates its torn tail, and then routes every
// subsequent committed SQL mutation through it. OpenDir attaches the epoch's
// log before the database is handed out; attaching twice is an error.
func (db *DB) attachWAL(path string) error {
	db.walMu.Lock()
	attached := db.wal != nil
	db.walMu.Unlock()
	if attached {
		return errors.New("engine: WAL already attached")
	}
	w, txns, err := openWAL(db.fsRef(), path)
	if err != nil {
		return err
	}
	// Replay before publishing the WAL pointer: replayed statements run
	// through the normal Exec/Batch paths, which consult the (still-nil)
	// pointer and must not re-log.
	for _, stmts := range txns {
		if err := db.applyReplayed(stmts); err != nil {
			_ = w.Close() // the replay failure is the error that matters
			return fmt.Errorf("engine: WAL replay: %w", err)
		}
	}
	db.walMu.Lock()
	defer db.walMu.Unlock()
	if db.wal != nil {
		_ = w.Close() // lost the attach race; the duplicate-attach error wins
		return errors.New("engine: WAL already attached")
	}
	db.wal = w
	return nil
}

// detachWAL stops logging, flushes, fsyncs, and closes the file, reporting
// any error (Close). Detaching when nothing is attached is a no-op.
func (db *DB) detachWAL() error {
	db.walMu.Lock()
	defer db.walMu.Unlock()
	if db.wal == nil {
		return nil
	}
	w := db.wal
	db.wal = nil
	return w.Close()
}

// openWAL opens (or creates) a WAL file, scans it for complete
// transactions, and truncates the torn tail so appends resume at the end of
// the valid prefix. It returns the transactions to replay.
func openWAL(fsys crashfs.FS, path string) (*WAL, [][]string, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	info, err := fsys.Stat(path)
	if err != nil {
		_ = f.Close() // the stat failure is the error that matters
		return nil, nil, err
	}
	size := info.Size()

	var txns [][]string
	switch {
	case size < walHeaderSize:
		// Empty file, or a crash tore the header itself: start fresh.
		if size > 0 {
			if err := f.Truncate(0); err != nil {
				_ = f.Close()
				return nil, nil, err
			}
		}
		if _, err := f.Write([]byte(walMagic)); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	default:
		hdr := make([]byte, walHeaderSize)
		if _, err := f.ReadAt(hdr, 0); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		if string(hdr) != walMagic {
			_ = f.Close()
			return nil, nil, fmt.Errorf("engine: %s is not a TRAC WAL (magic %q)", path, hdr)
		}
		var validEnd int64
		txns, validEnd = scanWAL(io.NewSectionReader(f, walHeaderSize, size-walHeaderSize))
		validEnd += walHeaderSize
		if validEnd < size {
			if err := f.Truncate(validEnd); err != nil {
				_ = f.Close()
				return nil, nil, err
			}
		}
	}
	w := &WAL{fs: fsys, f: f, w: bufio.NewWriter(f), path: path}
	w.gcond = sync.NewCond(&w.gmu)
	return w, txns, nil
}

// scanWAL parses framed records from r and groups statements into
// transactions at each commit record. It returns the complete transactions
// and the offset (relative to r) just past the last commit record — the
// point the file should be truncated to. Any malformed record (short
// header, oversized length, CRC mismatch, torn payload) ends the scan: a
// WAL's contract is its longest valid prefix.
func scanWAL(r io.Reader) (txns [][]string, validEnd int64) {
	br := bufio.NewReader(r)
	var (
		off     int64
		pending []string
	)
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return txns, validEnd
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n < 1 || n > walMaxRecord {
			return txns, validEnd
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return txns, validEnd
		}
		if codec.Checksum(body) != sum {
			return txns, validEnd
		}
		off += 8 + int64(n)
		switch body[0] {
		case walRecStatement:
			pending = append(pending, string(body[1:]))
		case walRecCommit:
			if len(pending) > 0 {
				txns = append(txns, pending)
				pending = nil
			}
			validEnd = off
		default:
			return txns, validEnd
		}
	}
}

// writeWALRecord frames one record onto w.
func writeWALRecord(w *bufio.Writer, typ byte, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(1+len(payload)))
	crc := crc32.Update(codec.Checksum([]byte{typ}), codec.Castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := w.WriteByte(typ); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// poison records the first I/O failure; later calls keep the original.
func (w *WAL) poison(err error) {
	w.gmu.Lock()
	if w.perr == nil {
		w.perr = fmt.Errorf("%w: %v", ErrWALPoisoned, err)
	}
	w.gmu.Unlock()
	w.gcond.Broadcast()
}

// poisonErr returns the sticky failure, if any.
func (w *WAL) poisonErr() error {
	w.gmu.Lock()
	defer w.gmu.Unlock()
	return w.perr
}

// logCommitted appends one committed transaction's statements. Called with
// the statements that actually executed, after the engine commit succeeded.
// The canonical text is rendered here, only when a log is attached: a
// memory-only database never pays for strings nobody reads.
func (db *DB) logCommitted(stmts ...sqlparser.Statement) error {
	db.walMu.Lock()
	w := db.wal
	db.walMu.Unlock()
	if w == nil || len(stmts) == 0 {
		return nil
	}
	texts := make([]string, len(stmts))
	for i, s := range stmts {
		texts[i] = s.SQL()
	}
	return w.append(texts)
}

// append writes one transaction (statements + commit record), flushes it to
// the OS, and — in Sync mode — blocks until a group fsync covers it.
func (w *WAL) append(stmts []string) error {
	w.mu.Lock()
	if err := w.poisonErr(); err != nil {
		w.mu.Unlock()
		return err
	}
	for _, s := range stmts {
		if err := writeWALRecord(w.w, walRecStatement, []byte(s)); err != nil {
			w.mu.Unlock()
			w.poison(err)
			return err
		}
	}
	if err := writeWALRecord(w.w, walRecCommit, nil); err != nil {
		w.mu.Unlock()
		w.poison(err)
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.mu.Unlock()
		w.poison(err)
		return err
	}
	w.gmu.Lock()
	w.appended++
	group := w.appended
	w.gmu.Unlock()
	needSync := w.Sync
	w.mu.Unlock()
	if !needSync {
		return nil
	}
	return w.waitSynced(group)
}

// waitSynced blocks until commit group `group` is durable, electing this
// goroutine fsync leader when no sync is in flight. The leader's single
// fsync covers every group flushed before it started — the group-commit
// batching that makes Sync mode cost ~1 fsync per concurrent burst.
func (w *WAL) waitSynced(group uint64) error {
	w.gmu.Lock()
	defer w.gmu.Unlock()
	for w.synced < group && w.perr == nil {
		if w.syncing {
			w.gcond.Wait()
			continue
		}
		w.syncing = true
		target := w.appended // every group ≤ target is already flushed
		w.gmu.Unlock()
		err := w.f.Sync()
		w.gmu.Lock()
		w.syncing = false
		if err != nil {
			if w.perr == nil {
				w.perr = fmt.Errorf("%w: %v", ErrWALPoisoned, err)
			}
		} else if target > w.synced {
			w.synced = target
		}
		w.gcond.Broadcast()
	}
	if w.synced >= group {
		return nil
	}
	return w.perr
}

// Close flushes, fsyncs, and closes the log, reporting the first error
// (including a prior poisoning) instead of discarding it.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	first := w.poisonErr()
	if err := w.w.Flush(); err != nil && first == nil {
		first = err
	}
	if err := w.f.Sync(); err != nil && first == nil {
		first = err
	}
	if err := w.f.Close(); err != nil && first == nil {
		first = err
	}
	w.f = nil
	return first
}

// applyReplayed executes one recovered transaction.
func (db *DB) applyReplayed(stmts []string) error {
	if len(stmts) == 0 {
		return nil
	}
	// DDL executes standalone; DML groups into one atomic batch. A WAL
	// transaction is either one DDL statement or a group of DML.
	first, err := sqlparser.Parse(stmts[0])
	if err != nil {
		return err
	}
	switch first.(type) {
	case *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
		b := db.BeginBatch()
		defer b.Abort()
		for _, s := range stmts {
			if _, err := b.Exec(s); err != nil {
				return err
			}
		}
		return b.Commit()
	default:
		for _, s := range stmts {
			if _, err := db.Exec(s); err != nil {
				return err
			}
		}
		return nil
	}
}
