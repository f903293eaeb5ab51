package exec

import (
	"runtime"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
)

// StatAggScan evaluates a global (no GROUP BY) aggregate directly over a
// table, answering as much of it as possible from segment zone-map
// statistics. A sealed segment contributes pure stats — COUNT from
// Len/NullCount, MIN/MAX from zone bounds, SUM/AVG from the seal-time sums —
// when three proofs line up:
//
//  1. Coverage: the pushed-down predicate provably matches every row in the
//     segment (SegmentFilter.Covers), or there is no predicate at all.
//     Predicates whose columnar form keeps a Rest kernel never cover.
//  2. Statability: every AggSpec reads a bare column whose zone map carries
//     the needed stat (Ordered bounds for MIN/MAX, seal-time sums for
//     SUM/AVG; COUNT needs only NullCount).
//  3. Visibility: every row version in the segment is visible under the
//     query snapshot. Zone stats summarize all versions regardless of MVCC
//     visibility, so one in-flight insert or delete in a segment sends that
//     segment back to the scan path — correctness never depends on stats.
//
// Segments failing any proof (and the unsealed tail) are scanned through the
// same batch kernels as a plain aggregate — in parallel across
// Workers when the leftover work spans multiple morsels — and the partial
// tables merge into the stat-derived state through the overflow-checked
// accumulators, so integer SUM/AVG remain exact end to end.
type StatAggScan struct {
	Table *storage.Table
	Snap  txn.Snapshot
	Specs []AggSpec
	// ArgCols holds the table-column index of each spec's bare-column
	// argument (-1 only for COUNT(*)).
	ArgCols []int
	// Kernel/SegFilter are the pushed-down predicate and its zone-map side;
	// both nil when the aggregate has no WHERE clause.
	Kernel    Kernel
	SegFilter *SegmentFilter
	// Need lists the table columns the scanned remainder reads (arguments
	// and predicate); nil carries every column.
	Need []int
	// Workers bounds the parallel degree for leftover scan work; <= 0
	// selects GOMAXPROCS.
	Workers int

	// Classification counters from the last Open, for result surfacing.
	StatSegments    int
	ScannedSegments int
	PrunedSegments  int
	TailRows        int

	held // the aggregate's one tuple
}

// Degree returns the effective worker bound for leftover scan work.
func (s *StatAggScan) Degree() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// statable reports whether every spec can be answered from seg's zone maps.
func (s *StatAggScan) statable(seg *storage.Segment) bool {
	for si := range s.Specs {
		spec := &s.Specs[si]
		if spec.Star {
			continue // COUNT(*) needs only the segment length
		}
		if s.ArgCols == nil || s.ArgCols[si] < 0 {
			return false
		}
		z := &seg.Zones[s.ArgCols[si]]
		switch spec.Func {
		case sqlparser.FuncCount:
			// NullCount is always recorded.
		case sqlparser.FuncMin, sqlparser.FuncMax:
			if !z.Ordered {
				return false
			}
		case sqlparser.FuncSum, sqlparser.FuncAvg:
			if !z.SumValid {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// classify splits the snapshot's segments into stat-answerable and
// must-scan sets. It is called by Open (authoritative) and by the planner
// for the EXPLAIN note (advisory — the note's snapshot may predate the
// query's).
func (s *StatAggScan) classify(heap *storage.HeapSnap) (fold, scan []*storage.Segment, pruned int) {
	for _, seg := range heap.Segments {
		if s.SegFilter != nil && s.SegFilter.Prune(seg) {
			pruned++
			continue
		}
		if covers(s.SegFilter, s.Kernel, seg) && s.statable(seg) && segAllVisible(s.Table, s.Snap, seg) {
			fold = append(fold, seg)
			continue
		}
		scan = append(scan, seg)
	}
	return fold, scan, pruned
}

// Classify snapshots the table and reports (statSegments, scannedSegments,
// prunedSegments, tailRows) without executing the aggregate.
func (s *StatAggScan) Classify() (int, int, int, int) {
	heap := s.Table.Snap()
	fold, scan, pruned := s.classify(heap)
	return len(fold), len(scan), pruned, len(heap.Tail())
}

// foldSegment folds one fully-proved segment's zone stats into the global
// state, mirroring what scanning its visible rows would accumulate.
func (s *StatAggScan) foldSegment(st *aggState, seg *storage.Segment) {
	n := seg.Len()
	for si := range s.Specs {
		spec := &s.Specs[si]
		if spec.Star {
			st.counts[si] += int64(n)
			continue
		}
		z := &seg.Zones[s.ArgCols[si]]
		nn := int64(n - z.NullCount)
		st.counts[si] += nn
		switch spec.Func {
		case sqlparser.FuncMin:
			if !z.Min.IsNull() {
				st.addMin(si, z.Min)
			}
		case sqlparser.FuncMax:
			if !z.Max.IsNull() {
				st.addMax(si, z.Max)
			}
		case sqlparser.FuncSum, sqlparser.FuncAvg:
			if nn > 0 {
				if z.SumIntExact {
					st.addSumExactInt(si, z.SumInt)
				} else {
					st.addSumFloat(si, z.Sum)
				}
			}
		}
	}
}

// Open classifies the snapshot, folds stats, scans the remainder, and
// finalizes the single output tuple.
func (s *StatAggScan) Open() error { return s.emitGroups(s) }

func (s *StatAggScan) groups() (*aggTable, error) {
	heap := s.Table.Snap()
	fold, scan, pruned := s.classify(heap)
	tail := heap.Tail()
	s.StatSegments, s.ScannedSegments, s.PrunedSegments, s.TailRows =
		len(fold), len(scan), pruned, len(tail)

	tab := newAggTable(nil, nil, s.Specs, s.ArgCols)
	st := tab.globalState()
	for _, seg := range fold {
		s.foldSegment(st, seg)
	}

	// Leftover units: uncovered segments plus the tail windows.
	units := make([]storage.Morsel, 0, len(scan)+len(tail)/storage.WindowSize+1)
	for _, seg := range scan {
		units = append(units, storage.Morsel{Seg: seg, Rows: seg.Rows})
	}
	units = heap.AppendTail(units)
	if len(units) == 0 {
		return tab, nil
	}

	// The morsels stats could not answer, in parallel when the leftover
	// work spans several units.
	src := storage.NewMorsels(units)
	newScan := func() *batchMorselScan {
		m := &batchMorselScan{src: src}
		m.scan.reset(s.Table, s.Snap, s.Kernel, s.SegFilter, 0, 0, s.Need)
		return m
	}
	workers := min(s.Degree(), len(units))
	if workers <= 1 {
		return tab, tab.observeAll(newScan())
	}
	return mergeParts(tab, workers, func(int) (*aggTable, error) {
		t := newAggTable(nil, nil, s.Specs, s.ArgCols)
		return t, t.observeAll(newScan())
	})
}
