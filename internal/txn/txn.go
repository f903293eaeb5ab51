// Package txn implements multiversion concurrency control for the TRAC
// engine. Its one hard requirement comes from the paper's first guiding
// requirement (§3.2): a user query and its system-generated recency query
// must see the same snapshot, so the recency report is transactionally
// consistent with the query result. Snapshots here are cheap (one atomic
// load), so a report runs both queries inside a single transaction.
//
// The scheme is commit-sequence-based snapshot isolation:
//
//   - Begin hands out a transaction ID and a snapshot (the commit sequence
//     number at begin time).
//   - Writes publish row versions stamped with the writer's transaction ID.
//   - Commit assigns the next commit sequence number and back-stamps it into
//     every written version (the fast path readers check), so visibility is
//     two atomic loads per row with no lock and no map lookup.
//   - A version is visible to snapshot S when its creator committed with
//     sequence ≤ S and its deleter (if any) did not.
//
// Write-write conflicts are resolved first-updater-wins: marking a row
// deleted is a CAS on Xmax, and losing the race returns ErrWriteConflict.
package txn

import (
	"errors"
	"sync"
	"sync/atomic"

	"trac/internal/storage"
)

// ErrWriteConflict is returned when two transactions try to delete or update
// the same row version.
var ErrWriteConflict = errors.New("txn: write-write conflict")

// ErrFinished is returned when using a transaction after Commit or Abort.
var ErrFinished = errors.New("txn: transaction already finished")

// Manager hands out transactions and tracks commit state.
type Manager struct {
	nextTxnID atomic.Uint64
	commitSeq atomic.Uint64

	mu     sync.Mutex
	status map[uint64]uint64 // txnID -> commit seq, or AbortedSeq
}

// NewManager returns a fresh transaction manager. Transaction IDs start at 1;
// commit sequence 0 means "before any commit".
func NewManager() *Manager {
	return &Manager{status: make(map[uint64]uint64)}
}

// Snapshot is a point in the commit order. All commits with sequence numbers
// ≤ Seq are visible.
type Snapshot struct {
	Seq uint64
	mgr *Manager
	// self is the transaction this snapshot belongs to (0 for detached
	// read-only snapshots); a transaction always sees its own writes.
	self uint64
}

// Txn is one transaction.
type Txn struct {
	id   uint64
	mgr  *Manager
	snap Snapshot

	mu       sync.Mutex
	inserted []*storage.Row
	deleted  []*storage.Row
	done     bool
}

// Begin starts a transaction with a snapshot at the current commit horizon.
func (m *Manager) Begin() *Txn {
	id := m.nextTxnID.Add(1)
	t := &Txn{id: id, mgr: m}
	t.snap = Snapshot{Seq: m.commitSeq.Load(), mgr: m, self: id}
	return t
}

// ReadSnapshot returns a detached read-only snapshot at the current commit
// horizon (no transaction bookkeeping, cannot write).
func (m *Manager) ReadSnapshot() Snapshot {
	return Snapshot{Seq: m.commitSeq.Load(), mgr: m}
}

// CurrentSeq returns the latest assigned commit sequence number.
func (m *Manager) CurrentSeq() uint64 { return m.commitSeq.Load() }

// lookupStatus returns the commit sequence for a transaction ID, or
// (0, false) while it is still in flight. AbortedSeq marks an abort.
func (m *Manager) lookupStatus(txnID uint64) (uint64, bool) {
	m.mu.Lock()
	seq, ok := m.status[txnID]
	m.mu.Unlock()
	return seq, ok
}

// ID returns the transaction's identifier.
func (t *Txn) ID() uint64 { return t.id }

// Snapshot returns the transaction's read snapshot.
func (t *Txn) Snapshot() Snapshot { return t.snap }

// InsertRow publishes row (already carrying values) into tbl.
func (t *Txn) InsertRow(tbl *storage.Table, row *storage.Row) error {
	return t.InsertRows(tbl, []*storage.Row{row})
}

// InsertRows publishes a run of rows into tbl in one step.
func (t *Txn) InsertRows(tbl *storage.Table, rows []*storage.Row) error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return ErrFinished
	}
	for _, row := range rows {
		row.Xmin = t.id
	}
	t.inserted = append(t.inserted, rows...)
	t.mu.Unlock()
	return tbl.AppendRows(rows)
}

// Delete marks a version of tbl as deleted by this transaction. It fails with
// ErrWriteConflict if another live or committed transaction got there first.
// Every mark it sets is counted in tbl's delete marks, which is what lets a
// reader cache that a sealed segment holds no deleted version
// (storage.Table.Settled).
func (t *Txn) Delete(tbl *storage.Table, row *storage.Row) error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return ErrFinished
	}
	t.mu.Unlock()
	for {
		cur := row.Xmax.Load()
		if cur == t.id {
			return nil // already deleted by us
		}
		if cur != 0 {
			// Someone else holds the delete mark. If they aborted, we can
			// steal it; otherwise it is a conflict.
			if seq, ok := t.mgr.lookupStatus(cur); ok && seq == storage.AbortedSeq {
				if row.Xmax.CompareAndSwap(cur, t.id) {
					row.XmaxSeq.Store(0)
					tbl.NoteDeleteMark()
					t.mu.Lock()
					t.deleted = append(t.deleted, row)
					t.mu.Unlock()
					return nil
				}
				continue
			}
			return ErrWriteConflict
		}
		if row.Xmax.CompareAndSwap(0, t.id) {
			row.XmaxSeq.Store(0)
			tbl.NoteDeleteMark()
			t.mu.Lock()
			t.deleted = append(t.deleted, row)
			t.mu.Unlock()
			return nil
		}
	}
}

// Commit makes the transaction's writes durable in the commit order and
// back-stamps commit sequences into the touched versions.
func (t *Txn) Commit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrFinished
	}
	t.done = true

	m := t.mgr
	m.mu.Lock()
	seq := m.commitSeq.Add(1)
	m.status[t.id] = seq
	m.mu.Unlock()

	for _, row := range t.inserted {
		row.XminSeq.Store(seq)
	}
	for _, row := range t.deleted {
		if row.Xmax.Load() == t.id {
			row.XmaxSeq.Store(seq)
		}
	}
	return nil
}

// Abort rolls the transaction back: its inserts become permanently
// invisible and its delete marks are released.
func (t *Txn) Abort() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrFinished
	}
	t.done = true

	m := t.mgr
	m.mu.Lock()
	m.status[t.id] = storage.AbortedSeq
	m.mu.Unlock()

	for _, row := range t.inserted {
		row.XminSeq.Store(storage.AbortedSeq)
	}
	for _, row := range t.deleted {
		// Release the delete mark so others may delete the row.
		row.Xmax.CompareAndSwap(t.id, 0)
	}
	return nil
}

// Visible reports whether a row version is visible to the snapshot.
func (s Snapshot) Visible(row *storage.Row) bool {
	if !s.createdVisible(row) {
		return false
	}
	return !s.deletedVisible(row)
}

func (s Snapshot) createdVisible(row *storage.Row) bool {
	if s.self != 0 && row.Xmin == s.self {
		return true // own insert
	}
	seq := row.XminSeq.Load()
	if seq == 0 {
		// Slow path: creator not yet stamped. Consult the manager and
		// stamp on its behalf if it has resolved.
		st, ok := s.mgr.lookupStatus(row.Xmin)
		if !ok {
			return false // still in flight
		}
		row.XminSeq.CompareAndSwap(0, st)
		seq = st
	}
	return seq != storage.AbortedSeq && seq <= s.Seq
}

func (s Snapshot) deletedVisible(row *storage.Row) bool {
	xmax := row.Xmax.Load()
	if xmax == 0 {
		return false
	}
	if s.self != 0 && xmax == s.self {
		return true // own delete
	}
	seq := row.XmaxSeq.Load()
	if seq == 0 {
		st, ok := s.mgr.lookupStatus(xmax)
		if !ok {
			return false // deleter still in flight: row still visible
		}
		if st == storage.AbortedSeq {
			return false
		}
		row.XmaxSeq.CompareAndSwap(0, st)
		seq = st
	}
	return seq != storage.AbortedSeq && seq <= s.Seq
}
