package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"trac/internal/crashfs"
	"trac/internal/sqlparser"
	"trac/internal/txn"
)

func walDB(t *testing.T, path string) *DB {
	t.Helper()
	db := New()
	if err := db.attachWAL(path); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestWALReplayRebuildsDatabase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trac.wal")
	db := walDB(t, path)
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT)`)
	db.MustExec(`CREATE INDEX i ON Activity (mach_id)`)
	db.MustExec(`INSERT INTO Heartbeat VALUES ('m1', '2006-03-15 14:20:05')`)
	db.MustExec(`INSERT INTO Activity VALUES ('m1', 'idle'), ('m2', 'busy')`)
	db.MustExec(`UPDATE Activity SET value = 'busy' WHERE mach_id = 'm1'`)
	db.MustExec(`DELETE FROM Activity WHERE mach_id = 'm2'`)
	if err := db.detachWAL(); err != nil {
		t.Fatal(err)
	}

	// "Crash" and recover into a fresh database.
	db2 := walDB(t, path)
	defer db2.detachWAL()
	res, err := db2.Query(`SELECT mach_id, value FROM Activity`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Str() != "busy" {
		t.Errorf("recovered Activity = %v", res.Rows)
	}
	res, _ = db2.Query(`SELECT COUNT(*) FROM Heartbeat`)
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("recovered Heartbeat = %v", res.Rows[0][0])
	}
	// The index came back through the logged CREATE INDEX.
	act, _ := db2.Catalog().Get("Activity")
	if act.Index(0) == nil {
		t.Error("index not recovered")
	}
	// Recovery keeps appending: new writes survive another cycle.
	db2.MustExec(`INSERT INTO Activity VALUES ('m3', 'idle')`)
	db2.detachWAL()
	db3 := walDB(t, path)
	defer db3.detachWAL()
	res, _ = db3.Query(`SELECT COUNT(*) FROM Activity`)
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("second recovery = %v", res.Rows[0][0])
	}
}

func TestWALBatchesAreAtomicUnderTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trac.wal")
	db := walDB(t, path)
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	b := db.BeginBatch()
	b.Exec(`INSERT INTO T VALUES (1)`)
	b.Exec(`INSERT INTO T VALUES (2)`)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	db.detachWAL()

	// Simulate a torn write: append garbage (a record length with missing
	// body) to the log.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{40, 'I', 'N', 'S'})
	f.Close()

	db2 := walDB(t, path)
	defer db2.detachWAL()
	res, err := db2.Query(`SELECT COUNT(*) FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("complete batch must replay (2 rows), torn tail dropped: %v", res.Rows[0][0])
	}
}

func TestWALUncommittedBatchNotLogged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trac.wal")
	db := walDB(t, path)
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	b := db.BeginBatch()
	b.Exec(`INSERT INTO T VALUES (1)`)
	b.Abort()
	db.detachWAL()

	db2 := walDB(t, path)
	defer db2.detachWAL()
	res, _ := db2.Query(`SELECT COUNT(*) FROM T`)
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("aborted batch leaked into WAL: %v", res.Rows[0][0])
	}
}

func TestCheckpointDirStartsFreshLog(t *testing.T) {
	db, dir := openTestDir(t)
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	for i := 0; i < 10; i++ {
		db.MustExec(`INSERT INTO T VALUES (1)`)
	}
	if err := db.CheckpointDir(); err != nil {
		t.Fatal(err)
	}
	// The dump subsumes the old log; the new epoch's log holds nothing yet.
	walPath := filepath.Join(dir, walFileName(db.Epoch()))
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != walHeaderSize {
		t.Errorf("fresh WAL is %d bytes, want bare header (%d)", fi.Size(), walHeaderSize)
	}
	// Post-checkpoint writes land in the fresh log.
	db.MustExec(`INSERT INTO T VALUES (2)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery = load dump, then replay log.
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := countRows(t, db2, "T"); got != 11 {
		t.Errorf("checkpoint+log recovery = %d rows, want 11", got)
	}
}

func TestWALErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	db := walDB(t, path)
	if err := db.attachWAL(path); err == nil {
		t.Error("double attach should fail")
	}
	db.detachWAL()
	if err := db.detachWAL(); err != nil {
		t.Errorf("double detach should be a no-op: %v", err)
	}
	// Replay of a WAL whose statements fail (e.g. table already exists)
	// surfaces an error.
	db3 := New()
	db3.MustExec(`CREATE TABLE X (a BIGINT)`)
	dbW := New()
	if err := dbW.attachWAL(path); err != nil {
		t.Fatal(err)
	}
	dbW.MustExec(`CREATE TABLE X (a BIGINT)`)
	dbW.detachWAL()
	if err := db3.attachWAL(path); err == nil {
		t.Error("replaying conflicting DDL should fail")
		db3.detachWAL()
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	db := walDB(t, path)
	db.walMu.Lock()
	db.wal.Sync = true
	db.walMu.Unlock()
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	const writers, per = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := db.Exec(fmt.Sprintf(`INSERT INTO T VALUES (%d)`, id*per+j)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.detachWAL(); err != nil {
		t.Fatal(err)
	}
	db2 := walDB(t, path)
	defer db2.detachWAL()
	res, _ := db2.Query(`SELECT COUNT(*) FROM T`)
	if res.Rows[0][0].Int() != writers*per {
		t.Errorf("group-commit recovery = %v rows, want %d", res.Rows[0][0], writers*per)
	}
}

func TestWALFsyncFailurePoisons(t *testing.T) {
	m := crashfs.NewMem()
	db, err := OpenDir("p", WithFS(m), WithSyncWAL())
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	// Arm the next mutating op to fail: it will be the record write or the
	// fsync of the next commit; either must poison the WAL.
	m.SetCrashAt(1)
	if _, err := db.Exec(`INSERT INTO T VALUES (1)`); err == nil {
		t.Fatal("commit after injected I/O failure should error")
	}
	m.Recover()
	// The fs is healthy again, but the WAL must stay poisoned: its durable
	// contents are unknowable after a failed fsync.
	_, err = db.Exec(`INSERT INTO T VALUES (2)`)
	if !errors.Is(err, ErrWALPoisoned) && !errors.Is(err, ErrWALAppend) {
		t.Fatalf("post-poison commit error = %v, want poisoned", err)
	}
	if err := db.CheckpointDir(); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("post-poison checkpoint error = %v, want ErrWALPoisoned", err)
	}
	// Close reports rather than swallows.
	if err := db.Close(); err == nil {
		t.Error("closing a poisoned WAL should report the failure")
	}
}

// TestBatchCommitWALFailureIsErrWALAppend: a batch whose transaction
// committed but whose log append failed says so as ErrWALAppend, as an
// autocommit does. The sniffer's resync tells "visible but maybe not
// durable" from "not applied" by that sentinel alone.
func TestBatchCommitWALFailureIsErrWALAppend(t *testing.T) {
	m := crashfs.NewMem()
	db, err := OpenDir("p", WithFS(m), WithSyncWAL())
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	b := db.BeginBatch()
	for _, sql := range []string{`INSERT INTO T VALUES (1)`, `INSERT INTO T VALUES (2)`} {
		if _, err := b.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	m.SetCrashAt(1)
	if err := b.Commit(); !errors.Is(err, ErrWALAppend) {
		t.Fatalf("batch commit with a failing WAL = %v, want ErrWALAppend", err)
	}
	if got := countRows(t, db, "T"); got != 2 {
		t.Errorf("rows after the failed append = %d, want the 2 the batch committed", got)
	}
}

// syncFailFS is a crashfs.Mem whose file Syncs fail while failSync is set,
// without killing the filesystem: the disk lost a flush, yet the handle
// still closes cleanly.
type syncFailFS struct {
	*crashfs.Mem
	failSync bool
}

var errInjectedSync = errors.New("injected fsync failure")

func (fs *syncFailFS) OpenFile(name string, flag int, perm os.FileMode) (crashfs.File, error) {
	f, err := fs.Mem.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncFailFile{f, fs}, nil
}

type syncFailFile struct {
	crashfs.File
	fs *syncFailFS
}

func (f syncFailFile) Sync() error {
	if f.fs.failSync {
		return errInjectedSync
	}
	return f.File.Sync()
}

// TestCloseReportsFinalSyncAndCloseFailures: DB.Close on a healthy WAL is
// the last chance to learn that the log's tail never reached the disk, so a
// failed final fsync and a failed close of the log both reach the caller.
func TestCloseReportsFinalSyncAndCloseFailures(t *testing.T) {
	open := func(fsys crashfs.FS) *DB {
		db, err := OpenDir("p", WithFS(fsys))
		if err != nil {
			t.Fatal(err)
		}
		db.MustExec(`CREATE TABLE T (a BIGINT)`)
		db.MustExec(`INSERT INTO T VALUES (1)`)
		return db
	}

	t.Run("sync", func(t *testing.T) {
		fsys := &syncFailFS{Mem: crashfs.NewMem()}
		db := open(fsys)
		fsys.failSync = true
		if err := db.Close(); !errors.Is(err, errInjectedSync) {
			t.Fatalf("Close after a failed final fsync = %v, want the fsync error", err)
		}
	})

	t.Run("close", func(t *testing.T) {
		m := crashfs.NewMem()
		db := open(m)
		// The commits flushed the log, so Close's mutations are the fsync
		// and then the close of the log file: fail the second.
		m.SetCrashAt(2)
		if err := db.Close(); !errors.Is(err, crashfs.ErrCrashed) {
			t.Fatalf("Close after a failed close of the log = %v, want ErrCrashed", err)
		}
		ops := m.OpLog()
		if n := len(ops); n < 2 || !strings.HasPrefix(ops[n-2], "sync ") || !strings.HasPrefix(ops[n-1], "close ") {
			t.Fatalf("mutations = %q, want Close's sync then its failing close last", ops)
		}
	})
}

func TestWALRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL!"+"garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := New()
	if err := db.attachWAL(path); err == nil {
		db.detachWAL()
		t.Fatal("attaching a non-WAL file should fail")
	}
}

func TestWALSyncMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	db := walDB(t, path)
	db.walMu.Lock()
	db.wal.Sync = true
	db.walMu.Unlock()
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	db.MustExec(`INSERT INTO T VALUES (1)`)
	db.detachWAL()
	db2 := walDB(t, path)
	defer db2.detachWAL()
	res, _ := db2.Query(`SELECT COUNT(*) FROM T`)
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("sync mode rows = %v", res.Rows[0][0])
	}
}

// TestExecStmtLogsWhatExecLogs feeds one durable engine statement texts and
// another the same statements parsed once by the caller (the shard router's
// broadcasts): the two logs must be byte-identical and replay to the same
// state, whether a statement ran alone or inside a batch.
func TestExecStmtLogsWhatExecLogs(t *testing.T) {
	script := []string{
		`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`,
		`CREATE TABLE Activity (mach_id TEXT, value TEXT, load DOUBLE)`,
		`CREATE INDEX by_mach ON Activity (mach_id)`,
		`INSERT INTO Heartbeat VALUES ('m1', '2006-03-15 14:20:05'), ('m2', '2006-03-15 14:20:06')`,
		`insert into Activity (value, mach_id) values ('it''s idle', 'm1')`,
		`INSERT INTO Activity VALUES ('m2', 'busy', 0.5), ('m3', NULL, -1e3)`,
		`UPDATE Heartbeat SET recency = TIMESTAMP '2006-03-16 00:00:00' WHERE sid = 'm1'`,
		`UPDATE Activity SET load = load * 2 + 1 WHERE mach_id IN ('m2', 'm3') AND NOT (value IS NULL)`,
		`DELETE FROM Activity WHERE mach_id = 'm3'`,
		`DROP TABLE Heartbeat`,
	}
	batch := []string{
		`INSERT INTO Activity VALUES ('m4', 'idle', 1)`,
		`UPDATE Activity SET value = 'busy' WHERE mach_id = 'm4'`,
	}
	dir := t.TempDir()
	run := func(name string, parsed bool) string {
		path := filepath.Join(dir, name)
		db := walDB(t, path)
		exec := func(sql string, one func(string) (int, error), stmt func(sqlparser.Statement) (int, error)) {
			t.Helper()
			var err error
			if parsed {
				var st sqlparser.Statement
				if st, err = sqlparser.Parse(sql); err == nil {
					_, err = stmt(st)
				}
			} else {
				_, err = one(sql)
			}
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		for _, sql := range script[:len(script)-1] {
			exec(sql, db.Exec, db.ExecStmt)
		}
		b := db.BeginBatch()
		for _, sql := range batch {
			exec(sql, b.Exec, b.ExecStmt)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		exec(script[len(script)-1], db.Exec, db.ExecStmt)
		if err := db.detachWAL(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	text, stmt := run("text.wal", false), run("stmt.wal", true)
	a, err := os.ReadFile(text)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("logs differ: Exec wrote %d bytes, ExecStmt %d", len(a), len(b))
	}
	dump := func(path string) string {
		db := walDB(t, path)
		defer db.detachWAL()
		if _, err := db.Catalog().Get("Heartbeat"); err == nil {
			t.Error("replay kept the dropped table")
		}
		res, err := db.Query(`SELECT mach_id, value, load FROM Activity ORDER BY mach_id`)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	if got, want := dump(stmt), dump(text); got != want || !strings.Contains(want, "it's idle") {
		t.Fatalf("replayed states differ:\nExec     %s\nExecStmt %s", want, got)
	}
}

// TestMemoryOnlyCommitRendersNoSQL pins that a database with no log attached
// never renders a committed statement back to text.
func TestMemoryOnlyCommitRendersNoSQL(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	db.MustExec(`INSERT INTO Heartbeat VALUES ('m1', '2006-03-15 14:20:05')`)
	stmt, err := sqlparser.Parse(`UPDATE Heartbeat SET recency = '2006-03-16 00:00:00' WHERE sid = 'm1'`)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingStmt{Statement: stmt}
	if _, err := db.loggedAutocommit(counted, func(tx *txn.Txn) (int, error) {
		return db.execUpdate(stmt.(*sqlparser.UpdateStmt), tx)
	}); err != nil {
		t.Fatal(err)
	}
	if counted.rendered != 0 {
		t.Errorf("memory-only commit rendered its statement %d times", counted.rendered)
	}
}

type countingStmt struct {
	sqlparser.Statement
	rendered int
}

func (c *countingStmt) SQL() string {
	c.rendered++
	return c.Statement.SQL()
}
