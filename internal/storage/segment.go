package storage

import (
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"trac/internal/types"
)

// DefaultSegmentSize is the number of row versions sealed into one column
// segment. It matches DefaultMorselSize so a sealed segment is exactly one
// parallel-scan work unit, and it is large enough that the per-segment zone
// map check amortizes to noise while small enough that pruning granularity
// tracks the source-clustered layout sniffer ingestion produces.
const DefaultSegmentSize = 4096

// MaxZoneSources caps the per-segment distinct-source set. Beyond the cap
// the set is dropped (nil = untracked): source pruning falls back to the
// min/max bounds, and a semi-join probe that would have taken the segment's
// sources from the set (the metadata phase of exec.SemiJoin) reads its rows
// instead. The cap is reached in ordinary loads, not only pathological ones:
// a segment of 4,096 versions written ten or twenty rows per source at a
// time spans hundreds of sources, and so does a segment of a table rewritten
// in place once per source per poll, sealed after it aged.
const MaxZoneSources = 128

// ColVec is one column of a sealed segment in columnar form. When Pure,
// every non-null value has the declared kind and the payloads live in the
// typed slice for that kind (I64 for BIGINT/TIMESTAMP/BOOLEAN, F64 for
// DOUBLE, Str for TEXT), with Nulls marking the NULL slots; scan kernels
// then run tight loops over contiguous payload memory. A column holding a
// value of any other kind (possible only through the direct storage API —
// the SQL layer coerces on insert) is stored as a generic Vals copy instead,
// and kernels fall back to exact per-value semantics.
//
// A pure TEXT column of a sealed segment is also coded: Dict holds its
// distinct non-NULL values in ascending order and Codes[i] is the position
// of Str[i] in Dict (0 in a NULL slot), so a kernel can decide a predicate
// once per distinct value and a probe look a key up once per value. The
// codes are derived from Str at seal and at segment-file decode, like a zone
// map; the file format carries only Str. Vectors a batch owns are never
// coded.
type ColVec struct {
	Kind  types.Kind
	Pure  bool
	Nulls []bool
	I64   []int64
	F64   []float64
	Str   []string
	Dict  []string
	Codes []uint32
	Vals  []types.Value // only when !Pure
}

// Value reconstructs the i-th value of the column.
func (c *ColVec) Value(i int) types.Value {
	if !c.Pure {
		return c.Vals[i]
	}
	if c.Nulls[i] {
		return types.Null
	}
	switch c.Kind {
	case types.KindInt:
		return types.NewInt(c.I64[i])
	case types.KindTime:
		return types.NewTimeNanos(c.I64[i])
	case types.KindBool:
		return types.NewBool(c.I64[i] != 0)
	case types.KindFloat:
		return types.NewFloat(c.F64[i])
	case types.KindString:
		return types.NewString(c.Str[i])
	}
	return types.Null
}

// ZoneMap summarizes one column of one segment for scan pruning. Bounds are
// computed over every row version in the segment regardless of visibility,
// so they stay conservative under MVCC: later deletes only shrink the set of
// visible values, never grow it past the recorded bounds.
type ZoneMap struct {
	// Min/Max bound the non-null values; both are NULL when the column has
	// no non-null values in the segment.
	Min, Max types.Value
	// NullCount counts NULL slots.
	NullCount int
	// Ordered reports that Min/Max are valid. It is false when mixed value
	// kinds made the column unorderable (no pruning on bounds then).
	Ordered bool
	// Sources is the sorted distinct value set, tracked only for a monitored
	// table's TEXT data source column and only up to MaxZoneSources entries;
	// nil means untracked. It is the column's Dict, shared. It gives exact
	// membership pruning for the source-probing predicates user queries and
	// generated recency arms share.
	Sources []string
	// SumValid reports that the column's non-null sum was recorded at seal
	// time: the column is pure INT or DOUBLE. Together with NullCount (the
	// per-column non-null count is Len()-NullCount) it lets aggregation
	// answer COUNT/SUM/AVG over a fully-covered segment without touching the
	// vectors.
	SumValid bool
	// Sum is the float64 sum of the non-null values (valid iff SumValid).
	Sum float64
	// SumInt is the exact int64 sum of a pure INT column; SumIntExact is
	// false (and SumInt meaningless) when the sum overflowed int64, in which
	// case consumers fall back to the float Sum — the same explicit
	// int-overflow fallback the aggregate accumulators use.
	SumInt      int64
	SumIntExact bool
}

// HasSource reports whether the tracked source set contains s. Only
// meaningful when Sources != nil.
func (z *ZoneMap) HasSource(s string) bool {
	i := sort.SearchStrings(z.Sources, s)
	return i < len(z.Sources) && z.Sources[i] == s
}

// Segment is an immutable sealed region of a table's version heap: the row
// versions themselves (shared with the heap, so MVCC visibility and late
// materialization both work off the original *Row values) plus per-column
// typed vectors and zone maps. Segments are created once by the sealer and
// never modified; concurrent scans share them freely.
type Segment struct {
	Rows  []*Row
	Cols  []ColVec
	Zones []ZoneMap

	// live caches which versions can still be visible (see LiveSet): a table
	// updated in place all day — Heartbeat, which every report reads —
	// leaves segments that are mostly or wholly superseded versions, and a
	// scan should pay for the live ones, not for every version ever written.
	live atomic.Pointer[LiveSet]

	// settled caches the last successful Table.Settled pass over the segment.
	settled atomic.Pointer[settledMark]
}

// settledMark records that, when the owning table's delete-mark count was
// marks, every version of the segment had a committed creator — the latest
// at sequence seq — and no delete mark.
type settledMark struct{ marks, seq uint64 }

// Len returns the number of row versions in the segment.
func (s *Segment) Len() int { return len(s.Rows) }

// LiveSet says which versions of a segment can still be visible: as of
// commit sequence Seq, every version NOT in Pos (ascending positions) had
// been deleted by a committed transaction — a committed delete is final — or
// was created by one that aborted. A snapshot taken at or after Seq therefore
// needs to check only the versions in Pos; an older one must check them all.
// A LiveSet is immutable once published.
type LiveSet struct {
	Seq uint64
	Pos []int32
}

// Live returns the cached LiveSet usable by a snapshot at seq, or nil.
func (s *Segment) Live(seq uint64) *LiveSet {
	if l := s.live.Load(); l != nil && l.Seq <= seq {
		return l
	}
	return nil
}

// NoteLive offers the outcome of one scan's visibility pass as the new
// cache: under a snapshot at seq the scan checked the versions in from (nil:
// every version) and found those in visible. It is published only if every
// checked version that was not visible is gone for good — a deleter still in
// flight or aborted, or a creator not yet committed, leaves the cache as it
// was, and the next scan checks again.
func (s *Segment) NoteLive(seq uint64, from *LiveSet, visible []int) {
	gone := func(p int) bool {
		r := s.Rows[p]
		if r.XminSeq.Load() == AbortedSeq {
			return true
		}
		x := r.XmaxSeq.Load()
		return x != 0 && x != AbortedSeq && x <= seq
	}
	next := 0 // visible[next] is the next visible position at or after p
	check := func(p int) bool {
		if next < len(visible) && visible[next] == p {
			next++
			return true
		}
		return gone(p)
	}
	if from == nil {
		for p := range s.Rows {
			if !check(p) {
				return
			}
		}
	} else {
		for _, p := range from.Pos {
			if !check(int(p)) {
				return
			}
		}
	}
	pos := make([]int32, len(visible))
	for i, p := range visible {
		pos[i] = int32(p)
	}
	s.live.Store(&LiveSet{Seq: seq, Pos: pos})
}

// Settled reports whether every version of seg, a segment of t, was created
// by a committed transaction and carries no delete mark; seq is then the
// latest creator's commit sequence, so a snapshot at or after seq sees every
// version and an older one does not. Commits are final and a new delete mark
// counts in t's delete marks (NoteDeleteMark), so the answer of one pass
// over the rows holds until the table takes its next mark: a segment of an
// insert-only table is read once, and every later call is two atomic loads.
// A segment with an in-flight, aborted or deleted version is not settled,
// and each call checks it again, up to the first such version.
func (t *Table) Settled(seg *Segment) (seq uint64, ok bool) {
	// Read before the rows: a mark taken during the pass then fails the
	// cache's comparison at the next call.
	marks := t.marks.Load()
	if m := seg.settled.Load(); m != nil && m.marks == marks {
		return m.seq, true
	}
	seq, ok = settledSeq(seg.Rows)
	if ok {
		seg.settled.Store(&settledMark{marks: marks, seq: seq})
	}
	return seq, ok
}

// settledSeq reports whether every version of rows has a committed creator
// and no delete mark, and the latest creator's commit sequence if so.
func settledSeq(rows []*Row) (seq uint64, ok bool) {
	for _, r := range rows {
		x := r.XminSeq.Load()
		if x == 0 || x == AbortedSeq || r.Xmax.Load() != 0 {
			return 0, false
		}
		seq = max(seq, x)
	}
	return seq, true
}

// sealSegment builds the columnar form of one heap region.
func sealSegment(rows []*Row, schema *Schema) *Segment {
	n := len(rows)
	seg := &Segment{
		Rows:  rows,
		Cols:  make([]ColVec, schema.NumColumns()),
		Zones: make([]ZoneMap, schema.NumColumns()),
	}
	for ci := range seg.Cols {
		buildCol(rows, ci, schema.Columns[ci].Kind, &seg.Cols[ci], &seg.Zones[ci])
		zoneSums(&seg.Cols[ci], &seg.Zones[ci], n)
	}
	seg.code(schema)
	return seg
}

// code gives every pure TEXT column of the segment its dictionary and codes
// (see ColVec), and the source column's zone map its dictionary as the
// source set when that has at most MaxZoneSources entries.
func (s *Segment) code(schema *Schema) {
	for ci := range s.Cols {
		codeText(&s.Cols[ci])
	}
	if sc := schema.SourceColumn; sc >= 0 {
		z := &s.Zones[sc]
		z.Sources = nil
		if d := s.Cols[sc].Dict; d != nil && len(d) <= MaxZoneSources {
			z.Sources = d
		}
	}
}

// codeText builds a pure TEXT column's Dict and Codes. Values are numbered
// in order of first appearance — a run of one value, the common layout of a
// source-clustered column, costs one comparison a row — and renumbered once
// the distinct values are sorted.
func codeText(col *ColVec) {
	if !col.Pure || col.Kind != types.KindString {
		return
	}
	codes := make([]uint32, len(col.Str))
	ids := make(map[string]uint32)
	var seen []string
	last, lastID := "", uint32(0)
	for i, s := range col.Str {
		switch {
		case col.Nulls[i]:
			continue
		case len(seen) > 0 && s == last:
		default:
			id, ok := ids[s]
			if !ok {
				id = uint32(len(seen))
				ids[s] = id
				seen = append(seen, s)
			}
			last, lastID = s, id
		}
		codes[i] = lastID
	}
	order := make([]uint32, 2*len(seen))
	order, rank := order[:len(seen)], order[len(seen):] // by rank: the id; by id: the rank
	for k := range order {
		order[k] = uint32(k)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(seen[a], seen[b]) })
	dict := make([]string, len(seen))
	for k, id := range order {
		dict[k], rank[id] = seen[id], uint32(k)
	}
	for i, c := range codes {
		if !col.Nulls[i] {
			codes[i] = rank[c]
		}
	}
	col.Dict, col.Codes = dict, codes
}

// buildCol extracts one column into vector form and computes its zone map.
func buildCol(rows []*Row, ci int, kind types.Kind, col *ColVec, zone *ZoneMap) {
	n := len(rows)
	col.Kind = kind
	col.Pure = true
	col.Nulls = make([]bool, n)
	switch kind {
	case types.KindInt, types.KindTime, types.KindBool:
		col.I64 = make([]int64, n)
	case types.KindFloat:
		col.F64 = make([]float64, n)
	case types.KindString:
		col.Str = make([]string, n)
	default:
		col.Pure = false
		col.Vals = make([]types.Value, n)
	}
	zone.Ordered = true
	for i, r := range rows {
		v := r.Values[ci]
		if v.IsNull() {
			col.Nulls[i] = true
			zone.NullCount++
			continue
		}
		if col.Pure && v.Kind() != kind {
			// Mixed kinds: demote the whole column to the generic form.
			col.Vals = make([]types.Value, n)
			for j := 0; j < i; j++ {
				col.Vals[j] = rows[j].Values[ci]
			}
			col.Pure, col.I64, col.F64, col.Str = false, nil, nil, nil
		}
		if col.Pure {
			switch kind {
			case types.KindInt:
				col.I64[i] = v.Int()
			case types.KindTime:
				col.I64[i] = v.TimeNanos()
			case types.KindBool:
				if v.Bool() {
					col.I64[i] = 1
				}
			case types.KindFloat:
				col.F64[i] = v.Float()
			case types.KindString:
				col.Str[i] = v.Str()
			}
		} else {
			col.Vals[i] = v
		}
		if !zone.Ordered {
			continue
		}
		if zone.Min.IsNull() {
			zone.Min, zone.Max = v, v
			continue
		}
		if cmp, err := types.Compare(v, zone.Min); err != nil {
			// Unorderable mix: drop the bounds, keep the null count.
			zone.Ordered, zone.Min, zone.Max = false, types.Null, types.Null
			continue
		} else if cmp < 0 {
			zone.Min = v
		}
		if cmp, err := types.Compare(v, zone.Max); err == nil && cmp > 0 {
			zone.Max = v
		}
	}
}

// zoneSums records the per-column aggregate stats (float sum; exact int sum
// with overflow tracking) for pure numeric columns. Impure or non-numeric
// columns keep SumValid false, so SUM/AVG pushdown scans them and the row
// path's kind errors (e.g. SUM over TEXT) surface identically.
func zoneSums(col *ColVec, zone *ZoneMap, n int) {
	if !col.Pure {
		return
	}
	switch col.Kind {
	case types.KindInt:
		zone.SumValid, zone.SumIntExact = true, true
		for i := 0; i < n; i++ {
			if col.Nulls[i] {
				continue
			}
			v := col.I64[i]
			zone.Sum += float64(v)
			if zone.SumIntExact {
				s := zone.SumInt + v
				if (v > 0 && s < zone.SumInt) || (v < 0 && s > zone.SumInt) {
					zone.SumIntExact, zone.SumInt = false, 0
				} else {
					zone.SumInt = s
				}
			}
		}
	case types.KindFloat:
		zone.SumValid = true
		for i := 0; i < n; i++ {
			if !col.Nulls[i] {
				zone.Sum += col.F64[i]
			}
		}
	}
}

// HeapSnap is one consistent snapshot of a table's heap: the full version
// vector, the sealed segments covering its prefix, and the unsealed row
// tail. All cursors over the snapshot (Morsels, Windows, direct tail reads)
// share the same immutable slices — taking several cursors costs no
// additional locking or copying.
type HeapSnap struct {
	// Rows is the full version vector (sealed prefix + tail).
	Rows []*Row
	// Segments cover Rows[:Sealed] in order.
	Segments []*Segment
	// Sealed is the number of leading row slots covered by Segments.
	Sealed int
}

// Tail returns the unsealed row suffix.
func (h *HeapSnap) Tail() []*Row { return h.Rows[h.Sealed:] }

// Len returns the total number of row slots in the snapshot.
func (h *HeapSnap) Len() int { return len(h.Rows) }

// Snap takes a consistent heap snapshot: one lock acquisition, shared by
// every cursor derived from it. Versions appended or sealed after the call
// are not included.
func (t *Table) Snap() *HeapSnap {
	t.ensureHydrated()
	t.mu.RLock()
	defer t.mu.RUnlock()
	segs := t.segments[:len(t.segments):len(t.segments)]
	return &HeapSnap{
		Rows:     t.rows[:len(t.rows):len(t.rows)],
		Segments: segs,
		Sealed:   t.sealed,
	}
}

// SetSealThreshold configures the auto-sealer: after an append leaves the
// unsealed tail at or above n rows, complete regions of n rows are sealed
// into column segments. n == 0 restores DefaultSegmentSize; n < 0 disables
// auto-sealing (rows accumulate in the tail until Seal is called).
func (t *Table) SetSealThreshold(n int) {
	t.mu.Lock()
	t.sealEvery = n
	t.mu.Unlock()
}

// sealThreshold returns the effective auto-seal threshold (0 = disabled).
func (t *Table) sealThreshold() int {
	switch {
	case t.sealEvery < 0:
		return 0
	case t.sealEvery == 0:
		return DefaultSegmentSize
	default:
		return t.sealEvery
	}
}

// agedTailFactor and minAgedSeal decide when a tail short of the seal
// threshold is sealed anyway: once it holds agedTailFactor versions per live
// row of the table (and at least minAgedSeal). Only a table rewritten in
// place gets there — Heartbeat, one row per source, updated with every
// ingested row — and for it the tail is where superseded versions would
// otherwise sit unsummarized: sealed, they fall under a live set (see
// LiveSet) and a scan stops checking them. An insert-only table never has a
// tail longer than its live rows and keeps sealing by the threshold alone.
const (
	agedTailFactor = 4
	minAgedSeal    = 64
)

// maybeSealLocked seals complete threshold-sized regions of the tail, and a
// shorter tail that is mostly superseded versions. The caller holds t.mu.
func (t *Table) maybeSealLocked() {
	size := t.sealThreshold()
	if size == 0 {
		return
	}
	for len(t.rows)-t.sealed >= size {
		t.sealRegionLocked(size)
	}
	tail := len(t.rows) - t.sealed
	live := max(len(t.rows)-int(t.dead.Load()), 0)
	if tail >= minAgedSeal && tail >= agedTailFactor*live {
		t.sealRegionLocked(tail)
	}
}

// sealRegionLocked seals the next n tail rows into one segment. The caller
// holds t.mu and guarantees n <= len(tail).
func (t *Table) sealRegionLocked(n int) {
	region := t.rows[t.sealed : t.sealed+n : t.sealed+n]
	t.segments = append(t.segments, sealSegment(region, t.Schema))
	t.sealed += n
	for at := range t.tails {
		if at < t.sealed {
			delete(t.tails, at) // the segment's own source set stands for it now
		}
	}
}

// Seal converts the entire current tail into column segments (in chunks of
// the configured seal threshold — DefaultSegmentSize unless overridden —
// with one final short segment) and returns the number of segments created.
// It is the explicit form of the auto-sealer, for bulk loads and benchmarks
// that want full columnar coverage.
func (t *Table) Seal() int {
	t.ensureHydrated()
	t.mu.Lock()
	defer t.mu.Unlock()
	size := t.sealThreshold()
	if size == 0 {
		size = DefaultSegmentSize
	}
	created := 0
	for t.sealed < len(t.rows) {
		n := len(t.rows) - t.sealed
		if n > size {
			n = size
		}
		t.sealRegionLocked(n)
		created++
	}
	return created
}

// NumSegments returns the current sealed segment count.
func (t *Table) NumSegments() int {
	t.ensureHydrated()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.segments)
}

// SealedRows returns how many leading row versions are covered by segments.
func (t *Table) SealedRows() int {
	t.ensureHydrated()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sealed
}
