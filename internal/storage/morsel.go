package storage

import "sync/atomic"

// DefaultMorselSize is the number of row slots a parallel-scan worker claims
// at a time. Morsels are large enough that the per-claim atomic increment is
// noise, and small enough that a skewed filter (all matches in one heap
// region) still spreads work across workers.
const DefaultMorselSize = 4096

// Morsel is one unit of scan work: either a sealed column segment (Seg set,
// Rows aliasing the segment's row versions) or a run of unsealed tail rows
// (Seg nil). Segments are never split across morsels, so segment-relative
// positions double as selection-vector indices in columnar kernels.
type Morsel struct {
	Seg  *Segment
	Rows []*Row
	// At is the heap position of Rows[0] in a tail run cut from a heap
	// snapshot (Morsels, Windows); Table.WindowSources identifies the run by
	// it.
	At int
}

// makeUnits partitions one heap snapshot into scan units: one per sealed
// segment, then tail runs of the given size, aligned from the end of the
// sealed prefix. Every cursor built from the same snapshot shares the
// snapshot's slices — no per-cursor heap copy.
func makeUnits(snap *HeapSnap, size int) []Morsel {
	tail := snap.Tail()
	units := make([]Morsel, 0, len(snap.Segments)+(len(tail)+size-1)/size)
	for _, seg := range snap.Segments {
		units = append(units, Morsel{Seg: seg, Rows: seg.Rows})
	}
	for start := 0; start < len(tail); start += size {
		end := min(start+size, len(tail))
		units = append(units, Morsel{Rows: tail[start:end], At: snap.Sealed + start})
	}
	return units
}

// Morsels partitions a stable heap snapshot into scan units. Parallel scan
// workers share one Morsels value and claim units with a single atomic
// increment each — the morsel-driven scheduling discipline: work
// distribution is dynamic (fast workers claim more morsels), while each
// morsel is processed entirely by one worker, so per-worker state (filter
// evaluation, visibility checks) needs no synchronization.
type Morsels struct {
	units []Morsel
	rows  int
	next  atomic.Int64
}

// Morsels snapshots the heap and partitions it into units: one per sealed
// segment plus tail runs of the given size (<= 0 selects DefaultMorselSize).
// Versions appended after the call are not included, exactly like Rows.
func (t *Table) Morsels(size int) *Morsels {
	return t.Snap().Morsels(size)
}

// Morsels partitions an already-taken snapshot, sharing its slices.
func (h *HeapSnap) Morsels(size int) *Morsels {
	if size <= 0 {
		size = DefaultMorselSize
	}
	return &Morsels{units: makeUnits(h, size), rows: h.Len()}
}

// NewMorsels wraps an explicit unit list in a claimable morsel source, for
// callers that scan a subset of a snapshot — e.g. the segments and tail runs
// a stat-pushdown aggregate could not answer from zone maps.
func NewMorsels(units []Morsel) *Morsels {
	rows := 0
	for _, u := range units {
		rows += len(u.Rows)
	}
	return &Morsels{units: units, rows: rows}
}

// Claim hands out the next unclaimed morsel, or ok=false when the heap
// snapshot is exhausted. Safe for concurrent use.
func (m *Morsels) Claim() (Morsel, bool) {
	n := m.next.Add(1) - 1
	if n < 0 || n >= int64(len(m.units)) {
		return Morsel{}, false
	}
	return m.units[n], true
}

// Len returns the total number of row slots in the snapshot.
func (m *Morsels) Len() int { return m.rows }

// NumMorsels returns how many units the snapshot partitions into.
func (m *Morsels) NumMorsels() int { return len(m.units) }

// Windows iterates a stable heap snapshot in scan units for a single
// consumer — the serial counterpart of Morsels, with a plain cursor instead
// of an atomic claim. Batch scans use it to pull one segment or one
// batch-sized window of tail rows per step.
type Windows struct {
	units []Morsel
	rows  int
	next  int
}

// Windows snapshots the heap and partitions it like Morsels (<= 0 selects
// DefaultMorselSize). Versions appended after the call are not included,
// exactly like Rows. Not safe for concurrent use; workers share a Morsels
// instead.
func (t *Table) Windows(size int) *Windows {
	return t.Snap().Windows(size)
}

// Windows partitions an already-taken snapshot, sharing its slices.
func (h *HeapSnap) Windows(size int) *Windows {
	if size <= 0 {
		size = DefaultMorselSize
	}
	return &Windows{units: makeUnits(h, size), rows: h.Len()}
}

// Next hands out the next unit, or ok=false when the snapshot is exhausted.
func (w *Windows) Next() (Morsel, bool) {
	if w.next >= len(w.units) {
		return Morsel{}, false
	}
	u := w.units[w.next]
	w.next++
	return u, true
}

// Len returns the total number of row slots in the snapshot.
func (w *Windows) Len() int { return w.rows }
