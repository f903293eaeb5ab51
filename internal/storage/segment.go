package storage

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"trac/internal/types"
)

// DefaultSegmentSize is the number of row versions sealed into one column
// segment: four tail windows (WindowSize), so that the default threshold
// seals whole windows. A sealed segment is one parallel-scan work unit. It
// is large enough that the per-segment zone map check amortizes to noise
// while small enough that pruning granularity tracks the source-clustered
// layout sniffer ingestion produces.
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

// ColVec is one column of a segment in columnar form. When Pure,
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
// codes are derived from Str at seal and at segment-file decode, like the
// zone maps; the file format carries only Str. A tail window's vectors and
// vectors a batch owns are never coded.
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

// Segment is the columnar unit of a table's version heap: per column a typed
// vector (ColVec) over a run of row versions. A sealed segment covers a
// region of the sealed prefix: its Rows are the versions themselves (shared
// with the heap, so MVCC visibility and late materialization both work off
// the original *Row values), its Zones summarize each column, its TEXT
// columns are coded, and none of it changes again. A tail window (see
// newWindow) is a segment that is still filling: WindowSize slots, no Rows,
// Zones or codes, and the snapshot's rows of it (Morsel.Rows) say how many
// slots a reader may read.
//
// Whatever a segment caches about its versions — the live set, the settled
// mark, the source set — is recorded and used only when the snapshot's rows
// fill its vectors, which a sealed segment's always do and a window's do once
// it is full: from then on its rows never change.
type Segment struct {
	Rows  []*Row
	Cols  []ColVec
	Zones []ZoneMap

	n   int // slots per vector
	src int // the table's source column when the segment was made, or -1

	// live caches which versions can still be visible (see LiveSet): a table
	// updated in place all day — Heartbeat, which every report reads —
	// leaves units that are mostly or wholly superseded versions, and a scan
	// should pay for the live ones, not for every version ever written.
	live atomic.Pointer[LiveSet]

	// settled caches the last successful Table.Settled pass over the segment.
	settled atomic.Pointer[settledMark]

	once    sync.Once
	sources []string // set by once (see Sources)
}

// settledMark records that, when the owning table's delete-mark count was
// marks, every version of the segment had a committed creator — the latest
// at sequence seq — and no delete mark.
type settledMark struct{ marks, seq uint64 }

// Len returns the number of slots in the segment's vectors: its row versions
// once sealed, WindowSize for a tail window.
func (s *Segment) Len() int { return s.n }

// filled reports whether rows, a snapshot's rows of s, fill its vectors.
func (s *Segment) filled(rows []*Row) bool { return len(rows) == s.n }

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

// Live returns the cached LiveSet usable by a snapshot at seq whose rows of s
// are rows, or nil.
func (s *Segment) Live(seq uint64, rows []*Row) *LiveSet {
	if l := s.live.Load(); l != nil && l.Seq <= seq && s.filled(rows) {
		return l
	}
	return nil
}

// NoteLive offers the outcome of one scan's visibility pass over rows, its
// snapshot's rows of s, as the new cache: under a snapshot at seq the scan
// checked the versions in from (nil: every version) and found those in
// visible. It is published only if rows fill s and every checked version
// that was not visible is gone for good — a deleter still in flight or
// aborted, or a creator not yet committed, leaves the cache as it was, and
// the next scan checks again.
func (s *Segment) NoteLive(seq uint64, rows []*Row, from *LiveSet, visible []int) {
	if !s.filled(rows) {
		return
	}
	gone := func(p int) bool {
		r := rows[p]
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
		for p := range rows {
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

// Settled reports whether every version of seg, a segment of t whose rows
// under the caller's snapshot are rows, was created by a committed
// transaction and carries no delete mark; seq is then the latest creator's
// commit sequence, so a snapshot at or after seq sees every version and an
// older one does not. Commits are final and a new delete mark counts in t's
// delete marks (NoteDeleteMark), so the answer of one pass over the rows
// holds until the table takes its next mark: a segment of an insert-only
// table is read once, and every later call is two atomic loads. A segment
// with an in-flight, aborted or deleted version is not settled, and each
// call checks it again, up to the first such version; a window the rows do
// not fill is never settled: it is still growing.
func (t *Table) Settled(seg *Segment, rows []*Row) (seq uint64, ok bool) {
	if !seg.filled(rows) {
		return 0, false
	}
	// Read before the rows: a mark taken during the pass then fails the
	// cache's comparison at the next call.
	marks := t.marks.Load()
	if m := seg.settled.Load(); m != nil && m.marks == marks {
		return m.seq, true
	}
	seq, ok = settledSeq(rows)
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

// Sources returns the sorted distinct non-NULL values of column col over
// rows, a snapshot's rows of s. The set is tracked only for the table's
// source column, only while it is pure TEXT, and only up to MaxZoneSources
// entries: nil means untracked, and so does a snapshot whose rows do not
// fill s. It is built on the first call — the column's Dict when s is
// coded, a pass over the vector otherwise — and kept on s.
func (s *Segment) Sources(col int, rows []*Row) []string {
	if col != s.src || !s.filled(rows) {
		return nil
	}
	s.once.Do(func() { s.sources = distinctSources(&s.Cols[col]) })
	return s.sources
}

// distinctSources returns the sorted distinct non-NULL values of a TEXT
// vector, or nil when there are more than MaxZoneSources of them or the
// vector is not pure TEXT. A coded vector's set is its Dict; otherwise a
// run of one value, the layout of a source-clustered column, costs one
// comparison a slot.
func distinctSources(c *ColVec) []string {
	if !c.Pure || c.Kind != types.KindString {
		return nil
	}
	if c.Dict != nil {
		if len(c.Dict) > MaxZoneSources {
			return nil
		}
		return c.Dict
	}
	seen := make(map[string]struct{})
	out := []string{}
	last, have := "", false
	for i, s := range c.Str {
		if c.Nulls[i] || have && s == last {
			continue
		}
		last, have = s, true
		if _, ok := seen[s]; ok {
			continue
		}
		if len(out) == MaxZoneSources {
			return nil
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// sealRows builds the segment of rows from their values, for rows no
// window holds (CompactSegments).
func sealRows(rows []*Row, schema *Schema) *Segment {
	cols := makeCols(schema, len(rows))
	for k, r := range rows {
		for ci, v := range r.Values {
			if !cols[ci].put(k, v) {
				cols[ci] = cols[ci].generic(k)
				cols[ci].put(k, v)
			}
		}
	}
	return newSegment(rows, cols, schema)
}

// newSegment seals the segment of rows whose columns are cols: it computes
// the zone maps and codes the TEXT columns.
func newSegment(rows []*Row, cols []ColVec, schema *Schema) *Segment {
	seg := &Segment{Rows: rows, Cols: cols, Zones: make([]ZoneMap, len(cols)), n: len(rows), src: schema.SourceColumn}
	for ci := range cols {
		seg.Zones[ci] = zoneOf(&cols[ci])
		zoneSums(&cols[ci], &seg.Zones[ci], len(rows))
		codeText(&cols[ci])
	}
	return seg
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

// zoneOf computes the bounds and null count of a column. A pure integer or
// TEXT column is bounded by typed comparisons; any other by types.Compare,
// value by value, which drops the bounds at the first pair of values it
// cannot order.
func zoneOf(col *ColVec) (zone ZoneMap) {
	zone.Ordered = true
	for _, null := range col.Nulls {
		if null {
			zone.NullCount++
		}
	}
	if zone.NullCount == len(col.Nulls) {
		return zone
	}
	first := slices.Index(col.Nulls, false)
	switch {
	case col.Pure && col.I64 != nil:
		lo, hi := col.I64[first], col.I64[first]
		for i, v := range col.I64 {
			if !col.Nulls[i] {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		zone.Min, zone.Max = boxI64(col.Kind, lo), boxI64(col.Kind, hi)
		return zone
	case col.Pure && col.Str != nil:
		lo, hi := col.Str[first], col.Str[first]
		for i, v := range col.Str {
			if !col.Nulls[i] {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		zone.Min, zone.Max = types.NewString(lo), types.NewString(hi)
		return zone
	}
	for i := range col.Nulls {
		v := col.Value(i)
		if v.IsNull() {
			continue
		}
		if zone.Min.IsNull() {
			zone.Min, zone.Max = v, v
			continue
		}
		if cmp, err := types.Compare(v, zone.Min); err != nil {
			// Unorderable mix: drop the bounds, keep the null count.
			zone.Ordered, zone.Min, zone.Max = false, types.Null, types.Null
			return zone
		} else if cmp < 0 {
			zone.Min = v
		}
		if cmp, err := types.Compare(v, zone.Max); err == nil && cmp > 0 {
			zone.Max = v
		}
	}
	return zone
}

// boxI64 boxes the payload of a slot of a pure vector of kind BIGINT,
// TIMESTAMP or BOOLEAN.
func boxI64(kind types.Kind, v int64) types.Value {
	switch kind {
	case types.KindTime:
		return types.NewTimeNanos(v)
	case types.KindBool:
		return types.NewBool(v != 0)
	}
	return types.NewInt(v)
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
// vector, the sealed segments covering its prefix, and the windows holding
// the unsealed row tail. All cursors over the snapshot (Morsels, direct
// tail reads) share the same immutable slices — taking several
// cursors costs no additional locking or copying.
type HeapSnap struct {
	// Rows is the full version vector (sealed prefix + tail).
	Rows []*Row
	// Segments cover Rows[:Sealed] in order.
	Segments []*Segment
	// Sealed is the number of leading row slots covered by Segments.
	Sealed int

	wins []*Segment // tail windows holding Rows[Sealed:], WindowSize rows each
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
	return &HeapSnap{
		Rows:     t.rows[:len(t.rows):len(t.rows)],
		Segments: t.segments[:len(t.segments):len(t.segments)],
		Sealed:   t.sealed,
		wins:     t.wins[:len(t.wins):len(t.wins)],
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
	from := t.sealed
	for len(t.rows)-t.sealed >= size {
		t.sealRegionLocked(from, size)
	}
	tail := len(t.rows) - t.sealed
	live := max(len(t.rows)-int(t.dead.Load()), 0)
	if tail >= minAgedSeal && tail >= agedTailFactor*live {
		t.sealRegionLocked(from, tail)
	}
	t.trimWindowsLocked(from)
}

// sealRegionLocked seals the next n tail rows into one segment, copied out
// of the windows, which still start where the sealed prefix ended at from.
// The caller holds t.mu, guarantees n <= len(tail), and realigns the
// windows once it is done sealing (trimWindowsLocked).
func (t *Table) sealRegionLocked(from, n int) {
	region := t.rows[t.sealed : t.sealed+n : t.sealed+n]
	t.segments = append(t.segments, sealWindows(region, t.wins, t.sealed-from, t.Schema))
	t.sealed += n
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
	from, created := t.sealed, 0
	for t.sealed < len(t.rows) {
		t.sealRegionLocked(from, min(len(t.rows)-t.sealed, size))
		created++
	}
	t.trimWindowsLocked(from)
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
