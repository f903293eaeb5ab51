package storage

import "sync/atomic"

// Morsel is one unit of scan work: a segment with the snapshot's rows of it
// — a sealed segment's row versions, or a tail window's: WindowSize of them,
// or fewer in the last window — or, from an index scan, a run of versions
// nothing holds in columnar form (Seg nil). A unit is never split, so
// positions in Rows double as positions in the unit's vectors and as
// selection-vector indices in columnar kernels.
type Morsel struct {
	Seg  *Segment
	Rows []*Row
}

// AppendTail appends the snapshot's tail windows to units as scan units, in
// heap order.
func (h *HeapSnap) AppendTail(units []Morsel) []Morsel {
	for k, w := range h.wins {
		lo := h.Sealed + k*WindowSize
		hi := min(lo+WindowSize, len(h.Rows))
		units = append(units, Morsel{Seg: w, Rows: h.Rows[lo:hi:hi]})
	}
	return units
}

// makeUnits partitions one heap snapshot into scan units: one per sealed
// segment, then one per tail window. Every cursor built from the same
// snapshot shares the snapshot's slices — no per-cursor heap copy.
func makeUnits(h *HeapSnap) []Morsel {
	units := make([]Morsel, 0, len(h.Segments)+len(h.wins))
	for _, seg := range h.Segments {
		units = append(units, Morsel{Seg: seg, Rows: seg.Rows})
	}
	return h.AppendTail(units)
}

// Morsels partitions a stable heap snapshot into scan units. A serial scan
// claims from its own Morsels; parallel scan workers share one and claim
// units with a single atomic increment each — the morsel-driven scheduling
// discipline: work distribution is dynamic (fast workers claim more
// morsels), while each morsel is processed entirely by one worker, so
// per-worker state (filter evaluation, visibility checks) needs no
// synchronization.
type Morsels struct {
	units []Morsel
	rows  int
	next  atomic.Int64
}

// Morsels snapshots the heap and partitions it into units: one per sealed
// segment plus one per tail window. Versions appended after the call are
// not included, exactly like Rows.
func (t *Table) Morsels() *Morsels {
	return t.Snap().Morsels()
}

// Morsels partitions an already-taken snapshot, sharing its slices.
func (h *HeapSnap) Morsels() *Morsels {
	return &Morsels{units: makeUnits(h), rows: h.Len()}
}

// NewMorsels wraps an explicit unit list in a claimable morsel source, for
// callers that scan a subset of a snapshot — e.g. the segments and tail
// windows a stat-pushdown aggregate could not answer from zone maps.
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
