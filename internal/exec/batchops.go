package exec

import (
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// BatchScan is the batch-at-a-time heap scan over dual-format storage. The
// heap snapshot arrives as units: sealed column segments first, then
// batch-sized windows of the unsealed row tail.
//
// Sealed segments take the columnar path: the optional SegFilter first
// consults per-segment zone maps (a pruned segment costs one check and zero
// value touches), then narrows a selection vector of visible positions with
// fused loops over the segment's typed column vectors. Rows are
// materialized late — only surviving positions are ever aliased or copied
// into a batch — and the non-fused Rest of the predicate runs on those
// survivors. Tail windows take the row path: visibility filter, then the
// full Kernel, exactly as before segments existed.
//
// When the scan's output layout is exactly the table's own columns
// (Offset 0, Width = arity) the batch rows alias heap storage directly —
// zero per-row copying; see the Batch immutability contract. Wider layouts
// (join padding) copy into fresh padded tuples, like SeqScan.
type BatchScan struct {
	Table  *storage.Table
	Snap   txn.Snapshot
	Kernel Kernel // full predicate for tail windows; may be nil
	// SegFilter is the predicate's columnar form for sealed segments; when
	// nil, segments are materialized (visible rows only) and run through
	// Kernel like a tail window.
	SegFilter *SegmentFilter
	Offset    int // where this table's columns start in the output tuple
	Width     int // total output tuple width (0 means table arity)

	// PrunedSegments/ScannedSegments count zone-map outcomes for this
	// execution (reset by Open); EXPLAIN and benches read them.
	PrunedSegments  int
	ScannedSegments int

	win    *storage.Windows
	alias  bool
	curSeg *storage.Segment
	sel    []int
	selPos int
	selbuf []int
	arena  []types.Value
}

// Open snapshots the heap as scan units and resets per-execution state.
func (s *BatchScan) Open() error {
	s.win = s.Table.Windows(BatchSize)
	n := s.Table.Schema.NumColumns()
	if s.Width == 0 {
		s.Width = n
	}
	s.alias = s.Offset == 0 && s.Width == n
	s.curSeg, s.sel, s.selPos = nil, nil, 0
	s.PrunedSegments, s.ScannedSegments = 0, 0
	return nil
}

// appendRow adds one heap row to the batch: aliased when the layout allows,
// otherwise copied into a padded tuple carved from the scan's arena (never
// pooled, so rows stay valid after the batch is recycled; the zero
// types.Value provides the NULL padding).
func (s *BatchScan) appendRow(b *Batch, r *storage.Row, n int) {
	if s.alias {
		b.Append(r.Values)
		return
	}
	if len(s.arena) < s.Width {
		s.arena = make([]types.Value, BatchSize*s.Width)
	}
	row := s.arena[:s.Width:s.Width]
	s.arena = s.arena[s.Width:]
	copy(row[s.Offset:s.Offset+n], r.Values)
	b.Append(row)
}

// NextBatch emits the next non-empty batch of visible, predicate-passing
// rows.
func (s *BatchScan) NextBatch() (*Batch, error) {
	n := s.Table.Schema.NumColumns()
	for {
		if s.curSeg != nil && s.selPos < len(s.sel) {
			// Late materialization: emit the next chunk of survivors.
			b := GetBatch()
			rows := s.curSeg.Rows
			for s.selPos < len(s.sel) && !b.Full() {
				s.appendRow(b, rows[s.sel[s.selPos]], n)
				s.selPos++
			}
			k := s.Kernel
			if s.SegFilter != nil {
				k = s.SegFilter.Rest
			}
			if k != nil {
				if err := k(b); err != nil {
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
		s.curSeg = nil
		u, ok := s.win.Next()
		if !ok {
			return nil, nil
		}
		if u.Seg != nil {
			seg := u.Seg
			if s.SegFilter != nil && s.SegFilter.Prune(seg) {
				s.PrunedSegments++
				continue
			}
			s.ScannedSegments++
			if cap(s.selbuf) < seg.Len() {
				s.selbuf = make([]int, 0, seg.Len())
			}
			sel := s.selbuf[:0]
			for i, r := range seg.Rows {
				if s.Snap.Visible(r) {
					sel = append(sel, i)
				}
			}
			if s.SegFilter != nil {
				var err error
				sel, err = s.SegFilter.Narrow(seg, sel)
				if err != nil {
					return nil, err
				}
			}
			if len(sel) == 0 {
				continue
			}
			s.curSeg, s.sel, s.selPos = seg, sel, 0
			continue
		}
		b := GetBatch()
		for _, r := range u.Rows {
			if !s.Snap.Visible(r) {
				continue
			}
			s.appendRow(b, r, n)
		}
		if s.Kernel != nil {
			if err := s.Kernel(b); err != nil {
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

// Close releases the heap snapshot.
func (s *BatchScan) Close() error {
	s.win = nil
	s.curSeg, s.sel = nil, nil
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

// BatchProject evaluates output expressions over every selected row of each
// incoming batch, emitting fresh projected batches.
type BatchProject struct {
	Child BatchOperator
	Exprs []Evaluator
}

// Open opens the child.
func (p *BatchProject) Open() error { return p.Child.Open() }

// NextBatch projects the next batch. Output rows are carved out of one
// arena allocation per batch (never pooled, so they outlive recycling).
func (p *BatchProject) NextBatch() (*Batch, error) {
	in, err := p.Child.NextBatch()
	if err != nil || in == nil {
		return nil, err
	}
	w := len(p.Exprs)
	out := GetBatch()
	arena := make([]types.Value, in.Len()*w)
	for i := 0; i < in.Len(); i++ {
		row := in.Row(i)
		proj := arena[:w:w]
		arena = arena[w:]
		for ci, e := range p.Exprs {
			proj[ci], err = e(row)
			if err != nil {
				PutBatch(in)
				PutBatch(out)
				return nil, err
			}
		}
		out.Append(proj)
	}
	PutBatch(in)
	return out, nil
}

// Close closes the child.
func (p *BatchProject) Close() error { return p.Child.Close() }

// BatchHashJoin is the batched hash-join probe: the build side is
// materialized exactly like HashJoin (including the parallel partial-build
// path), and the probe side streams batches, hashing a whole window of keys
// per operator call. Output batches hold merged tuples.
//
// The probe side may produce rows narrower than the build side's padded
// width ("narrow probe" mode: an alias-mode scan of just the probe table).
// In that mode ProbeKeys must be compiled against the probe rows' own
// narrow layout, and ProbeOffset says where the probe columns land in the
// merged tuple. Narrow probing skips the per-row padding copy the probe
// scan would otherwise do — the merge places the columns directly.
type BatchHashJoin struct {
	Build                Operator
	Probe                BatchOperator
	BuildKeys, ProbeKeys []Evaluator
	Residual             Evaluator // may be nil
	ProbeOffset          int       // merged-tuple offset of narrow probe rows

	table map[string][][]types.Value
	buf   []byte
}

// Open materializes the build side.
func (j *BatchHashJoin) Open() error {
	if err := j.Probe.Open(); err != nil {
		return err
	}
	table, err := buildHashTable(j.Build, j.BuildKeys)
	if err != nil {
		return err
	}
	j.table = table
	return nil
}

// NextBatch probes the next input batch and emits all its matches.
func (j *BatchHashJoin) NextBatch() (*Batch, error) {
	for {
		in, err := j.Probe.NextBatch()
		if err != nil || in == nil {
			return nil, err
		}
		out := GetBatch()
		var arena []types.Value
		for i := 0; i < in.Len(); i++ {
			probe := in.Row(i)
			key, null, err := evalKeys(j.ProbeKeys, probe, j.buf[:0])
			j.buf = key[:0]
			if err != nil {
				PutBatch(in)
				PutBatch(out)
				return nil, err
			}
			if null {
				continue // NULL keys never join
			}
			for _, build := range j.table[string(key)] {
				// Merged tuples come from a per-batch arena (never pooled,
				// so they outlive the batch's recycling).
				w := len(build)
				if len(arena) < w {
					arena = make([]types.Value, BatchSize*w)
				}
				merged := arena[:w:w]
				if len(probe) < w {
					// Narrow probe: build is full width, probe columns slot
					// into their region directly.
					copy(merged, build)
					copy(merged[j.ProbeOffset:], probe)
				} else {
					mergeInto(merged, build, probe)
				}
				ok, err := EvalPredicate(j.Residual, merged)
				if err != nil {
					PutBatch(in)
					PutBatch(out)
					return nil, err
				}
				if ok {
					arena = arena[w:]
					out.Append(merged)
				}
			}
		}
		PutBatch(in)
		if out.Len() == 0 {
			PutBatch(out)
			continue
		}
		return out, nil
	}
}

// Close releases both sides.
func (j *BatchHashJoin) Close() error {
	j.table = nil
	return j.Probe.Close()
}
