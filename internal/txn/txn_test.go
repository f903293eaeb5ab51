package txn

import (
	"errors"
	"sync"
	"testing"

	"trac/internal/storage"
	"trac/internal/types"
)

func newTestTable(t *testing.T) *storage.Table {
	t.Helper()
	s, err := storage.NewSchema([]storage.Column{
		{Name: "sid", Kind: types.KindString},
		{Name: "v", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	return storage.NewTable("t", s)
}

func row(sid string, v int64) *storage.Row {
	return storage.NewRow([]types.Value{types.NewString(sid), types.NewInt(v)}, 0)
}

// visibleRows scans the heap applying a snapshot.
func visibleRows(tbl *storage.Table, s Snapshot) []*storage.Row {
	var out []*storage.Row
	for _, r := range tbl.Rows() {
		if s.Visible(r) {
			out = append(out, r)
		}
	}
	return out
}

func TestCommittedInsertVisible(t *testing.T) {
	m := NewManager()
	tbl := newTestTable(t)

	tx := m.Begin()
	if err := tx.InsertRow(tbl, row("m1", 1)); err != nil {
		t.Fatal(err)
	}
	// Not visible to a snapshot taken before commit.
	before := m.ReadSnapshot()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := m.ReadSnapshot()
	if n := len(visibleRows(tbl, before)); n != 0 {
		t.Errorf("pre-commit snapshot sees %d rows", n)
	}
	if n := len(visibleRows(tbl, after)); n != 1 {
		t.Errorf("post-commit snapshot sees %d rows", n)
	}
}

func TestUncommittedInvisibleToOthersVisibleToSelf(t *testing.T) {
	m := NewManager()
	tbl := newTestTable(t)
	tx := m.Begin()
	tx.InsertRow(tbl, row("m1", 1))
	if n := len(visibleRows(tbl, m.ReadSnapshot())); n != 0 {
		t.Errorf("other snapshot sees %d uncommitted rows", n)
	}
	if n := len(visibleRows(tbl, tx.Snapshot())); n != 1 {
		t.Errorf("own snapshot sees %d rows, want 1", n)
	}
	tx.Commit()
}

func TestAbortHidesInserts(t *testing.T) {
	m := NewManager()
	tbl := newTestTable(t)
	tx := m.Begin()
	tx.InsertRow(tbl, row("m1", 1))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := len(visibleRows(tbl, m.ReadSnapshot())); n != 0 {
		t.Errorf("aborted insert visible: %d rows", n)
	}
}

func TestDeleteVisibility(t *testing.T) {
	m := NewManager()
	tbl := newTestTable(t)

	tx1 := m.Begin()
	r := row("m1", 1)
	tx1.InsertRow(tbl, r)
	tx1.Commit()

	snapBefore := m.ReadSnapshot()

	tx2 := m.Begin()
	if err := tx2.Delete(tbl, r); err != nil {
		t.Fatal(err)
	}
	// Deleter's own snapshot must no longer see the row.
	if n := len(visibleRows(tbl, tx2.Snapshot())); n != 0 {
		t.Errorf("deleter still sees %d rows", n)
	}
	// Others still see it while the delete is uncommitted.
	if n := len(visibleRows(tbl, m.ReadSnapshot())); n != 1 {
		t.Errorf("concurrent snapshot sees %d rows, want 1", n)
	}
	tx2.Commit()
	// Old snapshot still sees the row (repeatable reads).
	if n := len(visibleRows(tbl, snapBefore)); n != 1 {
		t.Errorf("old snapshot sees %d rows, want 1", n)
	}
	if n := len(visibleRows(tbl, m.ReadSnapshot())); n != 0 {
		t.Errorf("new snapshot sees %d rows, want 0", n)
	}
}

func TestAbortedDeleteRestoresRow(t *testing.T) {
	m := NewManager()
	tbl := newTestTable(t)
	tx1 := m.Begin()
	r := row("m1", 1)
	tx1.InsertRow(tbl, r)
	tx1.Commit()

	tx2 := m.Begin()
	tx2.Delete(tbl, r)
	tx2.Abort()
	if n := len(visibleRows(tbl, m.ReadSnapshot())); n != 1 {
		t.Errorf("row lost after aborted delete: %d", n)
	}
	// Another transaction can now delete it.
	tx3 := m.Begin()
	if err := tx3.Delete(tbl, r); err != nil {
		t.Errorf("delete after aborted delete: %v", err)
	}
	tx3.Commit()
	if n := len(visibleRows(tbl, m.ReadSnapshot())); n != 0 {
		t.Errorf("row still visible: %d", n)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	m := NewManager()
	tbl := newTestTable(t)
	tx1 := m.Begin()
	r := row("m1", 1)
	tx1.InsertRow(tbl, r)
	tx1.Commit()

	a := m.Begin()
	b := m.Begin()
	if err := a.Delete(tbl, r); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(tbl, r); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("expected ErrWriteConflict, got %v", err)
	}
	// Double delete by the same txn is idempotent.
	if err := a.Delete(tbl, r); err != nil {
		t.Errorf("self re-delete: %v", err)
	}
	a.Commit()
	// Conflict also after the first deleter committed.
	c := m.Begin()
	if err := c.Delete(tbl, r); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("expected ErrWriteConflict after commit, got %v", err)
	}
}

func TestFinishedTxnRejectsUse(t *testing.T) {
	m := NewManager()
	tbl := newTestTable(t)
	tx := m.Begin()
	tx.Commit()
	if err := tx.Commit(); !errors.Is(err, ErrFinished) {
		t.Errorf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrFinished) {
		t.Errorf("abort after commit: %v", err)
	}
	if err := tx.InsertRow(tbl, row("m1", 1)); !errors.Is(err, ErrFinished) {
		t.Errorf("insert after commit: %v", err)
	}
	if err := tx.Delete(tbl, row("m1", 1)); !errors.Is(err, ErrFinished) {
		t.Errorf("delete after commit: %v", err)
	}
}

func TestSnapshotStableUnderConcurrentCommits(t *testing.T) {
	// The paper's Requirement 1: two reads inside one snapshot agree even
	// while writers commit in between. This is the mechanism that keeps a
	// recency report consistent with its user query.
	m := NewManager()
	tbl := newTestTable(t)
	setup := m.Begin()
	for i := 0; i < 100; i++ {
		setup.InsertRow(tbl, row("m1", int64(i)))
	}
	setup.Commit()

	reader := m.Begin()
	defer reader.Commit()
	first := len(visibleRows(tbl, reader.Snapshot()))

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tx := m.Begin()
				tx.InsertRow(tbl, row("m2", int64(i)))
				tx.Commit()
			}
		}()
	}
	wg.Wait()
	second := len(visibleRows(tbl, reader.Snapshot()))
	if first != second {
		t.Errorf("snapshot drifted: first read %d, second read %d", first, second)
	}
	if total := len(visibleRows(tbl, m.ReadSnapshot())); total != 100+8*50 {
		t.Errorf("final visible = %d", total)
	}
}

func TestConcurrentInsertersAllCommitted(t *testing.T) {
	m := NewManager()
	tbl := newTestTable(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tx := m.Begin()
				tx.InsertRow(tbl, row("m", int64(w*1000+i)))
				if i%10 == 9 {
					tx.Abort()
				} else {
					tx.Commit()
				}
			}
		}(w)
	}
	wg.Wait()
	want := 8 * 180
	if n := len(visibleRows(tbl, m.ReadSnapshot())); n != want {
		t.Errorf("visible = %d, want %d", n, want)
	}
}

func TestUpdatePattern(t *testing.T) {
	// UPDATE = delete old version + insert new version in one txn; readers
	// in older snapshots keep the old version, newer ones see the new.
	m := NewManager()
	tbl := newTestTable(t)
	tx := m.Begin()
	old := row("m1", 1)
	tx.InsertRow(tbl, old)
	tx.Commit()

	oldSnap := m.ReadSnapshot()

	up := m.Begin()
	if err := up.Delete(tbl, old); err != nil {
		t.Fatal(err)
	}
	if err := up.InsertRow(tbl, row("m1", 2)); err != nil {
		t.Fatal(err)
	}
	up.Commit()

	oldRows := visibleRows(tbl, oldSnap)
	if len(oldRows) != 1 || oldRows[0].Values[1].Int() != 1 {
		t.Errorf("old snapshot sees %v", oldRows)
	}
	newRows := visibleRows(tbl, m.ReadSnapshot())
	if len(newRows) != 1 || newRows[0].Values[1].Int() != 2 {
		t.Errorf("new snapshot sees %v", newRows)
	}
}
