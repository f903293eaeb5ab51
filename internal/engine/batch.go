package engine

import (
	"errors"
	"fmt"

	"trac/internal/sqlparser"
	"trac/internal/txn"
)

// ErrWALAppend marks a commit whose transaction landed but whose WAL append
// failed afterwards: the writes ARE visible to subsequent snapshots, only
// their durability record is missing. Callers that retry on commit failure
// must check for this with errors.Is to avoid double-applying.
var ErrWALAppend = errors.New("engine: WAL append failed after commit")

// Batch groups DML statements into one transaction, so a loader can apply a
// set of events together with the matching Heartbeat update atomically: a
// query snapshot then either sees all of a batch (events AND the advanced
// recency) or none of it. This is the loader-side half of the paper's
// consistency requirement — the query-side half is the shared snapshot used
// by the reporter.
type Batch struct {
	db    *DB
	tx    *txn.Txn
	done  bool
	n     int
	stmts []sqlparser.Statement // executed statements, for the WAL
}

// BeginBatch starts a batch transaction.
func (db *DB) BeginBatch() *Batch {
	return &Batch{db: db, tx: db.mgr.Begin()}
}

// Exec runs one DML statement (INSERT/UPDATE/DELETE) inside the batch. The
// statement sees the batch's own earlier writes.
func (b *Batch) Exec(sql string) (int, error) {
	if b.done {
		return 0, txn.ErrFinished
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return 0, err
	}
	return b.ExecStmt(stmt)
}

// ExecStmt runs an already-parsed DML statement inside the batch.
func (b *Batch) ExecStmt(stmt sqlparser.Statement) (int, error) {
	if b.done {
		return 0, txn.ErrFinished
	}
	var n int
	var err error
	switch s := stmt.(type) {
	case *sqlparser.InsertStmt:
		n, err = b.db.execInsert(s, b.tx)
	case *sqlparser.UpdateStmt:
		n, err = b.db.execUpdate(s, b.tx)
	case *sqlparser.DeleteStmt:
		n, err = b.db.execDelete(s, b.tx)
	default:
		return 0, fmt.Errorf("engine: batch supports only DML, got %T", stmt)
	}
	if err != nil {
		return 0, err
	}
	b.n += n
	b.stmts = append(b.stmts, stmt)
	return n, nil
}

// Affected returns the total number of rows touched so far.
func (b *Batch) Affected() int { return b.n }

// Commit publishes the whole batch atomically and appends it to the WAL
// (when attached) as one transaction.
func (b *Batch) Commit() error {
	if b.done {
		return txn.ErrFinished
	}
	b.done = true
	// Hold the checkpoint lock shared across the commit+append pair (see
	// DB.ckptMu) so a concurrent checkpoint can't snapshot the commit and
	// then truncate away its log record — or vice versa.
	b.db.ckptMu.RLock()
	defer b.db.ckptMu.RUnlock()
	if err := b.tx.Commit(); err != nil {
		return err
	}
	if err := b.db.logCommitted(b.stmts...); err != nil {
		return fmt.Errorf("%w: %v", ErrWALAppend, err)
	}
	return nil
}

// Abort rolls the whole batch back.
func (b *Batch) Abort() error {
	if b.done {
		return txn.ErrFinished
	}
	b.done = true
	return b.tx.Abort()
}
