package exec

import (
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// SeqScan iterates every visible row version of a table, optionally
// applying a compiled filter, and emits the table's columns padded into a
// tuple of the given width at the given offset (so a scan can feed a join
// layout directly).
type SeqScan struct {
	Table  *storage.Table
	Snap   txn.Snapshot
	Filter Evaluator // may be nil; evaluated against the padded tuple
	Offset int       // where this table's columns start in the output tuple
	Width  int       // total output tuple width (0 means table arity)
	// Reuse makes Next return the same backing buffer every call. The
	// planner sets it only when the consumer provably does not retain the
	// slice (e.g. a hash-join probe side or an aggregate input), removing
	// one allocation per scanned row on the hot paths.
	Reuse bool

	rows []*storage.Row
	pos  int
	buf  []types.Value
}

// Open snapshots the heap.
func (s *SeqScan) Open() error {
	s.rows = s.Table.Rows()
	s.pos = 0
	if s.Width == 0 {
		s.Width = s.Table.Schema.NumColumns()
	}
	if s.Reuse {
		s.buf = make([]types.Value, s.Width)
	}
	return nil
}

// Next emits the next visible, filter-passing row.
func (s *SeqScan) Next() ([]types.Value, bool, error) {
	n := s.Table.Schema.NumColumns()
	for s.pos < len(s.rows) {
		r := s.rows[s.pos]
		s.pos++
		if !s.Snap.Visible(r) {
			continue
		}
		var row []types.Value
		if s.Reuse {
			row = s.buf
		} else {
			row = make([]types.Value, s.Width)
		}
		copy(row[s.Offset:s.Offset+n], r.Values)
		ok, err := EvalPredicate(s.Filter, row)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
	}
	return nil, false, nil
}

// Close releases the heap snapshot.
func (s *SeqScan) Close() error {
	s.rows = nil
	return nil
}

// IndexScan probes a B+tree with a set of equality keys and/or one range,
// emitting visible rows like SeqScan. Keys and the range may be combined
// by the planner (e.g. IN-list plus residual filter).
type IndexScan struct {
	Table  *storage.Table
	Index  *storage.BTree
	Snap   txn.Snapshot
	Filter Evaluator
	Offset int
	Width  int

	// Keys, when non-nil, probes each key with point lookups.
	Keys []types.Value
	// Lo/Hi, when Keys is nil, bound a range scan.
	Lo, Hi storage.Bound
	// Reuse: see SeqScan.Reuse.
	Reuse bool

	matches []*storage.Row
	pos     int
	buf     []types.Value
}

// Open gathers matching row versions from the index.
func (s *IndexScan) Open() error {
	if s.Width == 0 {
		s.Width = s.Table.Schema.NumColumns()
	}
	if s.Reuse {
		s.buf = make([]types.Value, s.Width)
	}
	s.matches = s.matches[:0]
	s.pos = 0
	if s.Keys != nil {
		for _, k := range s.Keys {
			s.matches = append(s.matches, s.Index.LookupAt(k, s.Snap.Seq)...)
		}
	} else {
		s.Index.Scan(s.Lo, s.Hi, func(_ types.Value, rows []*storage.Row) bool {
			s.matches = append(s.matches, rows...)
			return true
		})
	}
	s.Table.NoteVisited(len(s.matches))
	return nil
}

// Next emits the next visible, filter-passing match.
func (s *IndexScan) Next() ([]types.Value, bool, error) {
	n := s.Table.Schema.NumColumns()
	for s.pos < len(s.matches) {
		r := s.matches[s.pos]
		s.pos++
		if !s.Snap.Visible(r) {
			continue
		}
		var row []types.Value
		if s.Reuse {
			row = s.buf
		} else {
			row = make([]types.Value, s.Width)
		}
		copy(row[s.Offset:s.Offset+n], r.Values)
		ok, err := EvalPredicate(s.Filter, row)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
	}
	return nil, false, nil
}

// Close releases gathered matches.
func (s *IndexScan) Close() error {
	s.matches = nil
	return nil
}

// ValuesOp emits a fixed set of rows (used for testing and for internal
// plumbing such as temp-table handoff).
type ValuesOp struct {
	RowsData [][]types.Value
	pos      int
}

// Open resets the cursor.
func (v *ValuesOp) Open() error { v.pos = 0; return nil }

// Next emits the next fixed row.
func (v *ValuesOp) Next() ([]types.Value, bool, error) {
	if v.pos >= len(v.RowsData) {
		return nil, false, nil
	}
	r := v.RowsData[v.pos]
	v.pos++
	return r, true, nil
}

// Bound is the number of fixed rows left.
func (v *ValuesOp) Bound() (int, bool) { return len(v.RowsData) - v.pos, true }

// Close is a no-op.
func (v *ValuesOp) Close() error { return nil }
