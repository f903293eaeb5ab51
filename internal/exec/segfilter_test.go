package exec

import (
	"fmt"
	"testing"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// segIDs runs exprSQL over the columnar path: a BatchScan with both the
// tail kernel and the compiled SegmentFilter, returning surviving ids and
// the scan's prune counters.
func segIDs(t *testing.T, tbl *storage.Table, m *txn.Manager, exprSQL string) (ids []int64, pruned, scanned int) {
	t.Helper()
	layout := layoutFor(tbl, "n")
	e, err := sqlparser.ParseExpr(exprSQL)
	if err != nil {
		t.Fatalf("parse %q: %v", exprSQL, err)
	}
	k, _, _, err := CompileKernel(e, layout)
	if err != nil {
		t.Fatalf("compile kernel %q: %v", exprSQL, err)
	}
	segf, err := CompileSegmentFilter(e, layout, 0, tbl.Schema.NumColumns())
	if err != nil {
		t.Fatalf("compile segment filter %q: %v", exprSQL, err)
	}
	scan := &BatchScan{Table: tbl, Snap: m.ReadSnapshot(), Kernel: k, SegFilter: segf}
	rows, err := Drain(&RowFromBatch{Src: scan})
	if err != nil {
		t.Fatalf("run segment filter %q: %v", exprSQL, err)
	}
	for _, r := range rows {
		ids = append(ids, r[0].Int())
	}
	return ids, scan.PrunedSegments, scan.ScannedSegments
}

// The full NULL-semantics predicate corpus from TestKernelNullSemantics,
// shared by the sealed and mixed-heap equivalence tests below.
var segfilterCorpus = []string{
	"name = 'idle'", "name <> 'idle'",
	"score > 0.5", "score <= 0.5", "score < 0.5", "score >= 0.5",
	"id >= 3.5", "id = 4", "id <> 4",
	"ts < '2006-03-12 00:00:00'", "ts >= '2006-03-12 00:00:00'",
	"name = alt", "name <> alt", "score > thresh",
	"name IN ('idle', 'down')", "name NOT IN ('idle')",
	"name IN ('idle', NULL)", "name NOT IN ('idle', NULL)",
	"name IN ('absent', 'also-absent')",
	"score BETWEEN 0.1 AND 0.5", "score NOT BETWEEN 0.1 AND 0.5",
	"score BETWEEN NULL AND 0.5", "score BETWEEN 0.95 AND 2.0",
	"name LIKE 'b%'", "name NOT LIKE '%d%'", "name LIKE '%zzz%'",
	"name IS NULL", "name IS NOT NULL", "score IS NULL", "score IS NOT NULL",
	"name = 'idle' AND score > 0.05",
	"name = 'busy' OR score > 0.55",
	"NOT (name = 'idle')",
	"id > 100", "name = NULL",
}

// TestSegmentFilterMatchesRowPath pins the core equivalence: a fully sealed
// table scanned through zone-map pruning + columnar narrowing must keep
// exactly the rows the predicate keeps evaluated row by row, for every
// predicate shape and NULL placement in the corpus.
func TestSegmentFilterMatchesRowPath(t *testing.T) {
	tbl, m := nullActivity(t)
	if n := tbl.Seal(); n != 1 {
		t.Fatalf("sealed %d segments, want 1", n)
	}
	for _, expr := range segfilterCorpus {
		want := rowIDs(t, tbl, m, expr)
		got, _, _ := segIDs(t, tbl, m, expr)
		if !idsEqual(got, want) {
			t.Errorf("sealed %q = %v, row by row %v", expr, got, want)
		}
	}
}

// TestSegmentFilterMixedHeap runs the corpus over a heap that is part
// sealed segment, part unsealed row tail: the segment path and the tail
// kernel path must agree with row-by-row evaluation end to end.
func TestSegmentFilterMixedHeap(t *testing.T) {
	tbl, m := nullActivity(t)
	tbl.Seal()
	// Grow an unsealed tail with the same value shapes, NULLs included.
	tx := m.Begin()
	tx.InsertRow(tbl, storage.NewRow([]types.Value{
		types.NewInt(7), types.NewString("idle"), types.Null, types.NewFloat(0.3), types.NewFloat(0.5), types.Null,
	}, 0))
	tx.InsertRow(tbl, storage.NewRow([]types.Value{
		types.NewInt(8), types.Null, types.NewString("busy"), types.Null, types.Null, types.Null,
	}, 0))
	tx.InsertRow(tbl, storage.NewRow([]types.Value{
		types.NewInt(9), types.NewString("busy"), types.NewString("busy"), types.NewFloat(0.7), types.NewFloat(0.2), types.Null,
	}, 0))
	tx.Commit()
	if got := len(tbl.Snap().Tail()); got != 3 {
		t.Fatalf("tail %d rows, want 3", got)
	}
	for _, expr := range segfilterCorpus {
		want := rowIDs(t, tbl, m, expr)
		got, _, _ := segIDs(t, tbl, m, expr)
		if !idsEqual(got, want) {
			t.Errorf("mixed %q = %v, row by row %v", expr, got, want)
		}
	}
}

// clusteredBySource builds a table whose rows arrive clustered by source
// (the paper's ingestion order: one sniffer log at a time), auto-sealing a
// 64-row segment per source. Zone maps are maximally selective in this
// layout: each segment covers one source and one id range.
func clusteredBySource(t *testing.T) (*storage.Table, *txn.Manager) {
	t.Helper()
	schema, err := storage.NewSchema([]storage.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "src", Kind: types.KindString},
		{Name: "score", Kind: types.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.SetSourceColumn("src"); err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable("N", schema)
	tbl.SetSealThreshold(64)
	m := txn.NewManager()
	tx := m.Begin()
	for s := 0; s < 4; s++ {
		for i := 0; i < 64; i++ {
			id := int64(s*64 + i)
			tx.InsertRow(tbl, storage.NewRow([]types.Value{
				types.NewInt(id), types.NewString(fmt.Sprintf("s%d", s)), types.NewFloat(float64(id)),
			}, 0))
		}
	}
	tx.Commit()
	if got := tbl.NumSegments(); got != 4 {
		t.Fatalf("auto-sealed %d segments, want 4", got)
	}
	return tbl, m
}

// TestZoneMapPruning checks that selective predicates skip segments whose
// zone maps exclude them — and that the pruned scans still return exactly
// the row-by-row answer.
func TestZoneMapPruning(t *testing.T) {
	tbl, m := clusteredBySource(t)
	cases := []struct {
		expr            string
		pruned, scanned int
	}{
		{"id < 64", 3, 1},
		{"id >= 192", 3, 1},
		{"id BETWEEN 70 AND 80", 3, 1},
		{"id = 100", 3, 1},
		{"src = 's2'", 3, 1},
		// Source-set disjointness: the recency short-circuit. Segments for
		// s0/s1/s3 can never contribute rows for these sources.
		{"src IN ('s2')", 3, 1},
		{"src IN ('s0', 's3')", 2, 2},
		{"src IN ('nowhere')", 4, 0},
		// No NULLs anywhere: IS NULL prunes everything, IS NOT NULL nothing.
		{"score IS NULL", 4, 0},
		{"score IS NOT NULL", 0, 4},
		// Residual conjunct keeps the fused prune: one segment survives the
		// id bound, then the LIKE runs only on its rows.
		{"id < 64 AND src LIKE 's%'", 3, 1},
		// Unprunable predicate scans everything.
		{"score >= 0", 0, 4},
		// NULL literal can never be TRUE: prune all segments.
		{"id = NULL", 4, 0},
	}
	for _, tc := range cases {
		want := rowIDs(t, tbl, m, tc.expr)
		got, pruned, scanned := segIDs(t, tbl, m, tc.expr)
		if !idsEqual(got, want) {
			t.Errorf("%q = %v, row by row %v", tc.expr, got, want)
		}
		if pruned != tc.pruned || scanned != tc.scanned {
			t.Errorf("%q pruned/scanned = %d/%d, want %d/%d",
				tc.expr, pruned, scanned, tc.pruned, tc.scanned)
		}
	}
}

// TestParallelScanSegmentEquivalence runs the corpus through the
// morsel-parallel batch path with the segment filter attached: worker
// claims interleave segment and tail units, and the merged result must
// match row-by-row evaluation (order-insensitively — parallel scans do not
// preserve heap order).
func TestParallelScanSegmentEquivalence(t *testing.T) {
	tbl, m := clusteredBySource(t)
	// Unsealed tail on top of the 4 segments.
	tx := m.Begin()
	for i := 256; i < 300; i++ {
		tx.InsertRow(tbl, storage.NewRow([]types.Value{
			types.NewInt(int64(i)), types.NewString("s4"), types.NewFloat(float64(i)),
		}, 0))
	}
	tx.Commit()
	layout := layoutFor(tbl, "n")
	for _, expr := range []string{"id < 64", "src IN ('s2', 's4')", "score >= 100 AND id < 280", "src LIKE 's%'"} {
		e, err := sqlparser.ParseExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		k, _, _, err := CompileKernel(e, layout)
		if err != nil {
			t.Fatal(err)
		}
		segf, err := CompileSegmentFilter(e, layout, 0, tbl.Schema.NumColumns())
		if err != nil {
			t.Fatal(err)
		}
		ps := &ParallelScan{Table: tbl, Snap: m.ReadSnapshot(), Workers: 4, Kernel: k, SegFilter: segf}
		rows, err := Drain(&RowFromBatch{Src: ps})
		if err != nil {
			t.Fatalf("parallel %q: %v", expr, err)
		}
		got := map[int64]bool{}
		for _, r := range rows {
			if got[r[0].Int()] {
				t.Fatalf("parallel %q: duplicate id %d", expr, r[0].Int())
			}
			got[r[0].Int()] = true
		}
		want := rowIDs(t, tbl, m, expr)
		if len(got) != len(want) {
			t.Fatalf("parallel %q: %d rows, row by row %d", expr, len(got), len(want))
		}
		for _, id := range want {
			if !got[id] {
				t.Errorf("parallel %q: missing id %d", expr, id)
			}
		}
	}
}

// TestScanChecksOnlyVersionsThatCanBeVisible: a scan that finds a quarter of
// a sealed segment's versions invisible offers what it saw as the segment's
// live set, and later scans check only those versions — none at all once
// every version has been deleted by committed transactions. The cache holds
// only for snapshots at or after the one that built it: an older snapshot
// still reads every row; and a delete that aborted or is still in flight is
// never taken for final.
func TestScanChecksOnlyVersionsThatCanBeVisible(t *testing.T) {
	tbl, m := clusteredBySource(t)
	heap := tbl.Snap()
	if len(heap.Segments) < 4 {
		t.Fatalf("fixture: %d segments", len(heap.Segments))
	}
	count := func(snap txn.Snapshot) int {
		rows, err := Drain(&RowFromBatch{Src: &BatchScan{Table: tbl, Snap: snap}})
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	}
	before := m.ReadSnapshot()
	total := count(before)
	seg0, seg1, seg2, seg3 := heap.Segments[0], heap.Segments[1], heap.Segments[2], heap.Segments[3]

	del := func(rows []*storage.Row) *txn.Txn {
		tx := m.Begin()
		for _, r := range rows {
			if err := tx.Delete(tbl, r); err != nil {
				t.Fatal(err)
			}
		}
		return tx
	}
	half := seg3.Len() / 2
	if err := del(seg0.Rows).Commit(); err != nil {
		t.Fatal(err)
	}
	if err := del(seg3.Rows[:half]).Commit(); err != nil {
		t.Fatal(err)
	}
	if err := del(seg1.Rows).Abort(); err != nil {
		t.Fatal(err)
	}
	inflight := del(seg2.Rows)
	defer inflight.Abort()

	after := m.ReadSnapshot()
	want := total - seg0.Len() - half
	if got := count(after); got != want {
		t.Fatalf("after the committed deletes: %d rows, want %d", got, want)
	}
	if l := seg0.Live(after.Seq); l == nil || len(l.Pos) != 0 {
		t.Errorf("segment 0: live set %+v, want an empty one: every version is deleted for good", l)
	}
	if l := seg3.Live(after.Seq); l == nil || len(l.Pos) != seg3.Len()-half || int(l.Pos[0]) != half {
		t.Errorf("segment 3: live set %+v, want the %d undeleted versions", l, seg3.Len()-half)
	}
	if seg1.Live(after.Seq) != nil || seg2.Live(after.Seq) != nil {
		t.Error("an aborted or in-flight deleter was taken for final")
	}
	// The cache is per snapshot: the older one cannot use it and still sees
	// everything.
	if seg0.Live(before.Seq) != nil {
		t.Error("live set offered to a snapshot older than the one that built it")
	}
	if got := count(before); got != total {
		t.Errorf("snapshot from before the deletes: %d rows, want %d", got, total)
	}
	if got := count(m.ReadSnapshot()); got != want {
		t.Errorf("rescan through the cached live sets: %d rows, want %d", got, want)
	}
	// The deleter's own snapshot sees its uncommitted deletes, which are not
	// final either.
	if got := count(inflight.Snapshot()); got != want-seg2.Len() {
		t.Errorf("in-flight deleter's own view: %d rows, want %d", got, want-seg2.Len())
	}
	if seg2.Live(m.ReadSnapshot().Seq) != nil {
		t.Error("an uncommitted delete was taken for final")
	}
	// More deletes in segment 3: the cached set is narrowed from itself.
	if err := del(seg3.Rows[half:]).Commit(); err != nil {
		t.Fatal(err)
	}
	last := m.ReadSnapshot()
	if got := count(last); got != want-(seg3.Len()-half) {
		t.Errorf("after deleting the rest of segment 3: %d rows, want %d", got, want-(seg3.Len()-half))
	}
	if l := seg3.Live(last.Seq); l == nil || len(l.Pos) != 0 {
		t.Errorf("segment 3: live set %+v, want an empty one", l)
	}
	if got := count(after); got != want {
		t.Errorf("snapshot between the deletes: %d rows, want %d", got, want)
	}
}
