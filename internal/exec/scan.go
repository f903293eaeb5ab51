package exec

import (
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// IndexScan probes a B+tree with a set of equality keys or one range and
// emits the visible, predicate-passing matches as columnar batches. Open
// gathers the matching versions; NextBatch hands them, up to BatchSize at a
// time, to the scan body a tail run of the heap goes through (unitScan):
// visibility, the predicate kernel, and a transposition that carries only
// the columns in Need.
type IndexScan struct {
	Table  *storage.Table
	Index  *storage.BTree
	Snap   txn.Snapshot
	Kernel Kernel // the predicate; may be nil
	Offset int    // where this table's columns start in the output tuple
	Width  int    // total output tuple width (0 means table arity)
	// Need lists the tuple offsets the plan reads; nil carries every column.
	Need []int

	// Keys, when non-nil, probes each key with a point lookup; the keys must
	// be distinct (the planner deduplicates an IN list), or a repeated key's
	// matches are emitted twice.
	Keys []types.Value
	// Lo/Hi, when Keys is nil, bound a range scan.
	Lo, Hi storage.Bound

	matches []*storage.Row
	pos     int
	scan    unitScan
}

// Open gathers the matching row versions from the index.
func (s *IndexScan) Open() error {
	s.matches, s.pos = s.matches[:0], 0
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
	s.scan.reset(s.Table, s.Snap, s.Kernel, nil, s.Offset, s.Width, s.Need)
	return nil
}

// NextBatch emits the next non-empty batch of visible, predicate-passing
// matches.
func (s *IndexScan) NextBatch() (*Batch, error) {
	for s.pos < len(s.matches) {
		end := min(s.pos+BatchSize, len(s.matches))
		b, err := s.scan.batch(storage.Morsel{Rows: s.matches[s.pos:end]})
		s.pos = end
		if b != nil || err != nil {
			return b, err
		}
	}
	return nil, nil
}

// Close releases the gathered matches.
func (s *IndexScan) Close() error {
	s.matches = recycled(s.matches, keptScratch)
	return nil
}
