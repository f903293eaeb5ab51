package storage

import (
	"slices"

	"trac/internal/types"
)

// tailSet summarizes one window of a table's unsealed tail, as a sealed
// segment's zone map and Settled cache summarize the segment: the distinct
// non-NULL values of the source column over every version in the window, and
// the last pass that found every creator committed and no delete mark. The
// rows of a window never change, so the values are read once; settled is
// valid while the table's delete-mark count is the one it recorded.
type tailSet struct {
	first   *Row // the window's first version: with n, what identifies it
	n       int
	sources []string // sorted; nil when over MaxZoneSources
	settled *settledMark
}

// WindowSources returns the distinct non-NULL values of the source column
// over rows, the run of the unsealed tail at heap position at, when they say
// exactly which sources a snapshot at seq sees in the run: every version was
// created by a committed transaction at or before seq, and none carries a
// delete mark. That is the gate Settled keeps for a segment, and the table's
// next delete mark invalidates it the same way. The values are read on the
// first call for a window and kept until the window is sealed; the gate is
// checked again on a call after a delete mark, and on every call while a
// version is in flight, aborted or deleted. A window of more than
// MaxZoneSources sources, a table without a TEXT source column, and rows
// that are not that run of the heap report false.
func (t *Table) WindowSources(at int, rows []*Row, seq uint64) ([]string, bool) {
	sc := t.Schema.SourceColumn
	if sc < 0 || len(rows) == 0 {
		return nil, false
	}
	// Read before the rows, as Settled does.
	marks := t.marks.Load()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if at < t.sealed || at+len(rows) > len(t.rows) {
		return nil, false
	}
	t.tailMu.Lock()
	defer t.tailMu.Unlock()
	ts := t.tails[at]
	if ts == nil || ts.first != rows[0] || ts.n != len(rows) {
		heap := t.rows[at : at+len(rows)]
		for i, r := range rows {
			if heap[i] != r {
				return nil, false
			}
		}
		ts = &tailSet{first: rows[0], n: len(rows), sources: distinctSources(rows, sc)}
		if t.tails == nil {
			t.tails = make(map[int]*tailSet)
		}
		t.tails[at] = ts
	}
	if ts.sources == nil {
		return nil, false
	}
	if ts.settled == nil || ts.settled.marks != marks {
		last, ok := settledSeq(rows)
		if !ok {
			return nil, false
		}
		ts.settled = &settledMark{marks: marks, seq: last}
	}
	return ts.sources, ts.settled.seq <= seq
}

// distinctSources returns the sorted distinct non-NULL values of column sc
// over rows, or nil when there are more than MaxZoneSources of them or one
// is not TEXT. A run of one value, the layout of a source-clustered column,
// costs one comparison a row.
func distinctSources(rows []*Row, sc int) []string {
	seen := make(map[string]struct{})
	out := []string{}
	last, have := "", false
	for _, r := range rows {
		v := r.Values[sc]
		switch {
		case v.IsNull():
			continue
		case v.Kind() != types.KindString:
			return nil
		case have && v.Str() == last:
			continue
		}
		last, have = v.Str(), true
		if _, ok := seen[last]; ok {
			continue
		}
		if len(out) == MaxZoneSources {
			return nil
		}
		seen[last] = struct{}{}
		out = append(out, last)
	}
	slices.Sort(out)
	return out
}
