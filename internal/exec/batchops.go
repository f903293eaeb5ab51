package exec

import (
	"hash/maphash"
	"slices"

	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// unitScan turns the units of a heap snapshot (storage.Morsel: a segment —
// sealed, or a tail window — or a run of index matches) into columnar
// batches. It is the one scan body behind BatchScan, IndexScan (whose
// matches are runs of rows), the ParallelScan workers and StatAggScan's
// leftover work.
//
// A segment becomes a batch that VIEWS its vectors — zero copy — along one
// path, whichever kind it is: its live set, then the optional SegFilter's
// zone-map prune (a pruned segment costs one check and zero value touches;
// a window has no zone maps yet), then Sel is the visible positions — every
// position, none checked, once the segment has settled before the snapshot,
// else each version checked — and the source-set feed may take the segment
// in place of its rows, else the predicate kernel's typed loops narrow Sel.
// A run of index matches is transposed once, visible rows only, into vectors
// the batch owns, and the same kernel runs over them. Either way the batch
// carries just the columns in need.
type unitScan struct {
	table  *storage.Table
	snap   txn.Snapshot
	kernel Kernel
	segf   *SegmentFilter
	offset int   // where the table's columns start in the output tuple
	width  int   // output tuple width
	need   []int // table columns to carry

	// feed's sink, when set, takes a segment's source set in place of its
	// rows; done means it holds all it can take and the scan ends.
	feed sourceFeed
	done bool

	pruned, scanned int // zone-map outcomes so far
}

// sourceFeed is a heap scan's attachment point for the semi-join probe it
// feeds (sink), which takes a segment's source set in place of the
// segment's rows when the set stands for them (unitScan.fromSources): set
// for one run by the probe before it opens the scan, and taken — cleared —
// by that Open, so a scan opened again carries nothing over. col is the
// table's source column.
type sourceFeed struct {
	sink *probeState
	col  int
}

// attach sets sink to receive the source sets of a scan of table whose
// columns start at tuple offset offset, provided col is that table's TEXT
// source column.
func (f *sourceFeed) attach(table *storage.Table, offset, col int, sink *probeState) {
	*f = sourceFeed{}
	if sc := table.Schema.SourceColumn; sc >= 0 && col == offset+sc && table.Schema.Columns[sc].Kind == types.KindString {
		*f = sourceFeed{sink: sink, col: sc}
	}
}

// take returns the attachment and clears it.
func (f *sourceFeed) take() sourceFeed {
	g := *f
	*f = sourceFeed{}
	return g
}

// covers reports whether a scan's predicate — kernel, with segf its zone-map
// side — provably holds on every row of seg: by the zone maps when seg has
// them, otherwise only when there is no predicate.
func covers(segf *SegmentFilter, kernel Kernel, seg *storage.Segment) bool {
	if segf != nil {
		return segf.Covers(seg)
	}
	return kernel == nil // no predicate at all
}

// segAllVisible reports whether every version of seg, a sealed segment of
// table, is visible under snap: the MVCC gate for answering a segment from
// its zone-map stats, which summarize every version whatever its
// visibility. Once a segment has settled (storage.Table.Settled) this is two
// atomic loads; otherwise every version is checked.
func segAllVisible(table *storage.Table, snap txn.Snapshot, seg *storage.Segment) bool {
	if seq, ok := table.Settled(seg, seg.Rows); ok {
		return seq <= snap.Seq
	}
	for _, r := range seg.Rows {
		if !snap.Visible(r) {
			return false
		}
	}
	return true
}

// reset readies the scan for an execution from a scan operator's fields:
// width 0 means the table's arity, and need — tuple offsets, nil for every
// column — is cut down to the table's own range. The operator holds the
// unitScan by value, so a reset allocates nothing once need has its room.
func (u *unitScan) reset(table *storage.Table, snap txn.Snapshot, kernel Kernel, segf *SegmentFilter, offset, width int, need []int) {
	n := table.Schema.NumColumns()
	if width == 0 {
		width = n
	}
	*u = unitScan{table: table, snap: snap, kernel: kernel, segf: segf, offset: offset, width: width, need: u.need[:0]}
	if need == nil {
		for ci := 0; ci < n; ci++ {
			u.need = append(u.need, ci)
		}
	}
	for _, off := range need {
		if ci := off - offset; ci >= 0 && ci < n {
			u.need = append(u.need, ci)
		}
	}
}

// batch scans one unit; it returns nil when no row of the unit survives.
func (u *unitScan) batch(m storage.Morsel) (*Batch, error) {
	seg := m.Seg
	var live *storage.LiveSet
	if seg != nil {
		live = seg.Live(u.snap.Seq, m.Rows)
		if live != nil && len(live.Pos) == 0 {
			return nil, nil // every version deleted before the snapshot
		}
		if u.segf != nil && u.segf.Prune(seg) {
			u.pruned++
			return nil, nil
		}
	}
	b := GetBatch()
	b.Shape(u.width, len(m.Rows))
	checked := len(m.Rows)
	switch {
	case live != nil:
		// Versions outside the cached live set are gone for good.
		checked = len(live.Pos)
		for _, p := range live.Pos {
			if u.snap.Visible(m.Rows[p]) {
				b.Sel = append(b.Sel, int(p))
			}
		}
	case u.settled(m):
		// Every version was committed by the snapshot and none is deleted:
		// there is nothing to check.
		checked = 0
		b.SelectAll()
	default:
		for i, r := range m.Rows {
			if u.snap.Visible(r) {
				b.Sel = append(b.Sel, i)
			}
		}
	}
	u.table.NoteVisited(checked)
	if seg == nil {
		u.transpose(b, m.Rows)
	} else {
		if u.feed.sink != nil && u.fromSources(m, b) {
			PutBatch(b)
			return nil, nil
		}
		// A quarter of what was checked turned out invisible: offer the
		// outcome as the segment's new live set, so later scans stop paying
		// for it.
		if checked-b.Len() > checked/4 {
			seg.NoteLive(u.snap.Seq, m.Rows, live, b.Sel)
		}
		if seg.Zones != nil {
			u.scanned++
		}
		u.view(b, seg.Cols)
	}
	if u.kernel != nil && b.Len() > 0 {
		if err := u.kernel(b); err != nil {
			PutBatch(b)
			return nil, err
		}
	}
	if b.Len() == 0 {
		PutBatch(b)
		return nil, nil
	}
	return b, nil
}

// view points the batch's needed columns at a segment's vectors.
func (u *unitScan) view(b *Batch, cols []storage.ColVec) {
	for _, ci := range u.need {
		b.Cols[u.offset+ci] = &cols[ci]
	}
}

// settled reports whether the unit is a segment that has settled
// (storage.Table.Settled) before the scan's snapshot: every version
// visible, none to check.
func (u *unitScan) settled(m storage.Morsel) bool {
	if m.Seg == nil {
		return false
	}
	seq, ok := u.table.Settled(m.Seg, m.Rows)
	return ok && seq <= u.snap.Seq
}

// fromSources hands the segment's source set to the sink in place of its
// rows, when the set says exactly which sources the scan would return from
// them: every version is visible under the snapshot (b, the visibility
// pass's outcome, selects every row), the predicate holds on every row, and
// the set is tracked (a segment over MaxZoneSources, or a window the
// snapshot saw partial, has none). It reports whether it did.
func (u *unitScan) fromSources(m storage.Morsel, b *Batch) bool {
	if b.Len() != len(m.Rows) || !covers(u.segf, u.kernel, m.Seg) {
		return false
	}
	sources := m.Seg.Sources(u.feed.col, m.Rows)
	if sources == nil {
		return false
	}
	u.done = !u.feed.sink.markSources(sources)
	return true
}

// transpose turns the visible rows of a run of index matches (b.Sel indexes
// rows) into vectors the batch owns, one pass over the rows filling every
// needed column (a row's values share a cache line; its columns do not
// share a row).
func (u *unitScan) transpose(b *Batch, rows []*storage.Row) {
	n := len(b.Sel)
	for _, ci := range u.need {
		c := b.NewVec(u.table.Schema.Columns[ci].Kind)
		vecResize(c, n)
		b.Cols[u.offset+ci] = c
	}
	for k, ri := range b.Sel {
		vals := rows[ri].Values
		for _, ci := range u.need {
			vecSet(b.Cols[u.offset+ci], k, vals[ci])
		}
	}
	b.n = n
	b.SelectAll()
}

// BatchScan is the serial batch-at-a-time heap scan over dual-format
// storage: sealed segments first, then the windows of the unsealed tail,
// each turned into one columnar batch (see unitScan).
type BatchScan struct {
	Table  *storage.Table
	Snap   txn.Snapshot
	Kernel Kernel // the pushed-down predicate; may be nil
	// SegFilter is the predicate's zone-map side, consulted before a sealed
	// segment is read; nil scans every segment.
	SegFilter *SegmentFilter
	Offset    int // where this table's columns start in the output tuple
	Width     int // total output tuple width (0 means table arity)
	// Need lists the tuple offsets the plan reads; nil carries every column.
	Need []int

	// PrunedSegments/ScannedSegments count zone-map outcomes for this
	// execution (reset by Open); EXPLAIN and benches read them.
	PrunedSegments  int
	ScannedSegments int

	feed  sourceFeed
	units *storage.Morsels
	scan  unitScan
}

// Open snapshots the heap as scan units and resets per-execution state.
func (s *BatchScan) Open() error {
	s.units = s.Table.Morsels()
	s.scan.reset(s.Table, s.Snap, s.Kernel, s.SegFilter, s.Offset, s.Width, s.Need)
	s.scan.feed = s.feed.take()
	s.PrunedSegments, s.ScannedSegments = 0, 0
	return nil
}

// feedSources attaches a semi-join probe's sink for the next run (see
// sourceFeed.attach).
func (s *BatchScan) feedSources(col int, sink *probeState) {
	s.feed.attach(s.Table, s.Offset, col, sink)
}

// NextBatch emits the next non-empty batch of visible, predicate-passing
// rows.
func (s *BatchScan) NextBatch() (*Batch, error) {
	for !s.scan.done {
		u, ok := s.units.Claim()
		if !ok {
			break
		}
		b, err := s.scan.batch(u)
		s.PrunedSegments, s.ScannedSegments = s.scan.pruned, s.scan.scanned
		if b != nil || err != nil {
			return b, err
		}
	}
	return nil, nil
}

// Close releases the heap snapshot.
func (s *BatchScan) Close() error {
	s.units = nil
	return nil
}

// BatchFilter narrows each incoming batch's selection vector with a fused
// kernel. Empty survivors are recycled without crossing the operator
// boundary.
type BatchFilter struct {
	Child  BatchOperator
	Kernel Kernel
}

// Open opens the child.
func (f *BatchFilter) Open() error { return f.Child.Open() }

// NextBatch emits the next batch with at least one surviving row.
func (f *BatchFilter) NextBatch() (*Batch, error) {
	for {
		b, err := f.Child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if f.Kernel != nil {
			if err := f.Kernel(b); err != nil {
				PutBatch(b)
				return nil, err
			}
		}
		if b.Len() == 0 {
			PutBatch(b)
			continue
		}
		return b, nil
	}
}

// Close closes the child.
func (f *BatchFilter) Close() error { return f.Child.Close() }

// BatchProject rearranges each incoming batch into the output shape, in
// place. An output column that is a bare input column (Cols) is the input's
// vector, shared; any other expression is evaluated over boxed scratch
// tuples into a generic vector the batch owns. Sel is untouched.
type BatchProject struct {
	Child BatchOperator
	Exprs []Evaluator
	// Cols holds, per output column, the input tuple offset when the
	// expression is a bare column reference (-1 = evaluate Exprs[i]); nil
	// evaluates every expression.
	Cols []int

	out      []*storage.ColVec
	computed []int
}

// Open opens the child.
func (p *BatchProject) Open() error { return p.Child.Open() }

// NextBatch projects the next batch.
func (p *BatchProject) NextBatch() (*Batch, error) {
	b, err := p.Child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	p.out, p.computed = p.out[:0], p.computed[:0]
	for i := range p.Exprs {
		if p.Cols != nil && p.Cols[i] >= 0 {
			p.out = append(p.out, b.Cols[p.Cols[i]])
			continue
		}
		// Sel names positions below b.n; the vector is filled at those.
		c := b.NewVec(types.KindNull)
		c.Vals = slices.Grow(c.Vals, b.n)[:b.n]
		p.out = append(p.out, c)
		p.computed = append(p.computed, i)
	}
	if len(p.computed) > 0 {
		for _, pos := range b.Sel {
			row := b.RowAt(pos)
			for _, i := range p.computed {
				if p.out[i].Vals[pos], err = p.Exprs[i](row); err != nil {
					PutBatch(b)
					return nil, err
				}
			}
		}
	}
	clear(b.scratch)
	b.Cols = append(b.Cols[:0], p.out...)
	clear(p.out)
	return b, nil
}

// Close closes the child.
func (p *BatchProject) Close() error { return p.Child.Close() }

// BatchDistinct suppresses duplicate tuples of a batch pipeline before any
// of them is boxed: it collects its input into one batch and narrows Sel to
// the first occurrence of each tuple. Tuples are hashed off the vectors and
// compared column by column along their hash's chain — nothing is encoded
// or allocated per tuple. NULLs are equal to each other here, as in every
// DISTINCT, and a generic vector is hashed and compared through AppendKey,
// which keeps its cross-kind equalities.
type BatchDistinct struct {
	Child BatchOperator

	held // the deduplicated input
}

// Open collects the child (opening and closing it) and removes duplicates.
func (d *BatchDistinct) Open() error {
	all, err := DrainBatch(d.Child)
	if err != nil || all == nil {
		return err
	}
	dedup(all)
	d.out = all
	return nil
}

// held is the output half of an operator that computes one batch in Open —
// its inputs opened, drained and closed there — and hands it over once.
type held struct {
	out *Batch
}

// NextBatch hands the batch over.
func (h *held) NextBatch() (*Batch, error) {
	b := h.out
	h.out = nil
	return b, nil
}

// Close drops a result nobody took.
func (h *held) Close() error {
	PutBatch(h.out)
	h.out = nil
	return nil
}

// UnionBatches unites batches of one width as a set: their selected tuples,
// concatenated in order (Concat), narrowed to the first occurrence of each
// (nil when there is none). The inputs, nil ones allowed, are recycled.
func UnionBatches(bs []*Batch) *Batch {
	all := Concat(bs)
	if all != nil {
		dedup(all)
	}
	return all
}

// Concat concatenates batches of one width: their selected tuples, in
// order, as one batch the caller owns (nil when there is none). The inputs,
// nil ones allowed, are recycled, except the one batch there is, which is
// returned as it is.
func Concat(bs []*Batch) *Batch {
	var c concat
	for _, b := range bs {
		c.add(b)
	}
	return c.done()
}

// concat builds one batch out of several: the first itself while it is the
// only one, then a batch they are all gathered into, in order.
type concat struct {
	all      *Batch
	gathered bool
}

// add takes b (nil is none) over.
func (c *concat) add(b *Batch) {
	switch {
	case b == nil:
	case c.all == nil:
		c.all = b
	default:
		if !c.gathered {
			first := c.all
			c.all, c.gathered = emptyLike(first), true
			c.all.absorb(first)
		}
		c.all.absorb(b)
	}
}

// done returns the batch built.
func (c *concat) done() *Batch {
	if c.gathered {
		c.all.SelectAll()
	}
	return c.all
}

// dedup narrows a batch's selection to the first occurrence of each tuple.
// The positions kept are filed in an open-addressed table of at least twice
// their number, a slot holding a position beside 32 bits of its tuple's hash:
// a probe passes over most occupied slots without comparing a column.
func dedup(b *Batch) {
	seed := maphash.MakeSeed()
	bits := 1
	for 1<<bits < 2*b.Len() {
		bits++
	}
	slots := make([]uint64, 1<<bits) // hash tag << 32 | position + 1; 0 is empty
	mask := uint64(len(slots) - 1)
	sel := b.Sel[:0]
	for _, pos := range b.Sel {
		var sum uint64
		for _, cv := range b.Cols {
			switch {
			case cv == nil:
			case !cv.Pure || cv.Kind == types.KindFloat:
				sum = mixHash(sum, hashValue(seed, cv.Value(pos)))
			case cv.Nulls[pos]:
				sum = mixHash(sum, hashInt('n', 0))
			case cv.Kind == types.KindString:
				sum = mixHash(sum, maphash.String(seed, cv.Str[pos]))
			default:
				sum = mixHash(sum, hashInt(byte(cv.Kind), uint64(cv.I64[pos])))
			}
		}
		tag := sum & 0xFFFFFFFF00000000
		i := sum >> (64 - bits)
		for ; slots[i] != 0; i = (i + 1) & mask {
			if slots[i]&0xFFFFFFFF00000000 == tag && samePositions(b, pos, int(uint32(slots[i]))-1) {
				break
			}
		}
		if slots[i] == 0 {
			slots[i] = tag | uint64(pos+1)
			sel = append(sel, pos)
		}
	}
	b.Sel = sel
}

// samePositions reports whether positions p and q of b hold the same tuple, NULL
// equal to NULL as in DISTINCT.
func samePositions(b *Batch, p, q int) bool {
	for _, cv := range b.Cols {
		var same bool
		switch {
		case cv == nil:
			continue
		case !cv.Pure || cv.Kind == types.KindFloat:
			same = sameValue(cv.Value(p), cv.Value(q))
		case cv.Nulls[p] || cv.Nulls[q]:
			same = cv.Nulls[p] && cv.Nulls[q]
		case cv.Kind == types.KindString:
			same = cv.Str[p] == cv.Str[q]
		default:
			same = cv.I64[p] == cv.I64[q]
		}
		if !same {
			return false
		}
	}
	return true
}

// BatchHashJoin is the columnar hash join. The build side — the smaller
// input — is collected into one batch and its positions filed in a keyIndex
// under the build keys; the probe side streams batches past it. Neither side
// is boxed: keys are read off the key vectors (BuildCols, ProbeCols), and
// for every match only the columns in Need are gathered into the output
// batch, a probe column from its vector at the probe position, a build
// column from its vector at the build position. With nothing in Need
// (COUNT(*) over a join) the output carries a selection vector and no column
// at all.
type BatchHashJoin struct {
	Build, Probe         BatchOperator
	BuildKeys, ProbeKeys []Evaluator
	// BuildCols/ProbeCols hold, per key, the tuple offset on that side when
	// the key is a bare column (-1 = evaluate the key over the boxed tuple);
	// nil evaluates every key.
	BuildCols, ProbeCols []int
	// Need lists the tuple offsets the plan reads above the join; nil
	// carries every column of both sides.
	Need []int

	// Probed counts the probe tuples examined by the last execution.
	Probed int

	build *Batch // the collected build side; nil when it is empty
	idx   *keyIndex
	buf   []byte
	pos   []int // per output tuple: probe position (when gathered from)
	hit   []int // per output tuple: build position (when gathered from)
	every []int // Need == nil: every tuple offset
}

// Open collects and indexes the build side. The probe side is opened first
// so its scan workers overlap the build; when the build fails, it is closed
// again.
func (j *BatchHashJoin) Open() error {
	j.Probed = 0
	if err := j.Probe.Open(); err != nil {
		return err
	}
	if err := j.index(); err != nil {
		j.Close()
		return err
	}
	return nil
}

// index collects the build side and files its positions under their keys.
func (j *BatchHashJoin) index() error {
	build, err := DrainBatch(j.Build)
	if err != nil {
		return err
	}
	j.build = build
	if build == nil {
		return nil
	}
	j.idx = newKeyIndex(len(j.BuildKeys), build.n, len(build.Sel))
	vals := make([]types.Value, len(j.BuildKeys))
	for _, pos := range build.Sel {
		null, err := build.keyValues(vals, j.BuildCols, j.BuildKeys, pos)
		if err != nil {
			return err
		}
		if !null { // NULL keys never join
			j.idx.add(int32(pos), vals, &j.buf)
		}
	}
	return nil
}

// NextBatch probes the next input batch and emits all its matches.
func (j *BatchHashJoin) NextBatch() (*Batch, error) {
	for {
		in, err := j.Probe.NextBatch()
		if err != nil || in == nil {
			return nil, err
		}
		out, err := j.probe(in)
		PutBatch(in)
		if out != nil || err != nil {
			return out, err
		}
	}
}

// probe joins one batch; nil when nothing matched.
func (j *BatchHashJoin) probe(in *Batch) (*Batch, error) {
	j.Probed += in.Len()
	if j.build == nil {
		return nil, nil
	}
	// Which sides the output gathers from decides what a match must record:
	// nothing at all for a count-only output.
	need := needOf(j.Need, &j.every, len(in.Cols))
	fromProbe, fromBuild := false, false
	for _, c := range need {
		fromProbe = fromProbe || in.Cols[c] != nil
		fromBuild = fromBuild || j.build.Cols[c] != nil
	}
	j.pos, j.hit = j.pos[:0], j.hit[:0]
	if fromProbe {
		j.pos = slices.Grow(j.pos, in.Len())
	}
	if fromBuild {
		j.hit = slices.Grow(j.hit, in.Len())
	}
	matches := 0
	_, err := j.idx.probe(in, j.ProbeCols, j.ProbeKeys, &j.buf, func(pos int, head int32) (bool, error) {
		for id := head; id >= 0; id = j.idx.next[id] {
			matches++
			if fromProbe {
				j.pos = append(j.pos, pos)
			}
			if fromBuild {
				j.hit = append(j.hit, int(id))
			}
		}
		return true, nil
	})
	if err != nil || matches == 0 {
		return nil, err
	}
	return joined(matches, need, in, j.pos, j.build, j.hit), nil
}

// needOf is a join's Need, or when that is nil every offset of a tuple of
// the given width, listed in *every.
func needOf(need []int, every *[]int, width int) []int {
	if need != nil {
		return need
	}
	*every = (*every)[:0]
	for c := 0; c < width; c++ {
		*every = append(*every, c)
	}
	return *every
}

// joined gathers a join's output: n tuples, the k-th pairing a's tuple at
// apos[k] with b's at bpos[k], carrying the columns in need — each from the
// side that carries it, the two sides' columns being disjoint. A side
// nothing is gathered from may pass no positions.
func joined(n int, need []int, a *Batch, apos []int, b *Batch, bpos []int) *Batch {
	out := GetBatch()
	out.Shape(len(a.Cols), n)
	out.SelectAll()
	for _, c := range need {
		src, at := a.Cols[c], apos
		if src == nil {
			src, at = b.Cols[c], bpos
		}
		if src != nil {
			out.Cols[c] = out.NewVec(src.Kind)
			vecGather(out.Cols[c], src, at)
		}
	}
	return out
}

// Close releases both sides.
func (j *BatchHashJoin) Close() error {
	PutBatch(j.build)
	j.build, j.idx = nil, nil
	j.pos, j.hit = recycled(j.pos, keptScratch), recycled(j.hit, keptScratch)
	return j.Probe.Close()
}
