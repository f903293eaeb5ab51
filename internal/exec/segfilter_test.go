package exec

import (
	"bytes"
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
	rows, err := Drain(scan)
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
		rows, err := Drain(ps)
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
		rows, err := Drain(&BatchScan{Table: tbl, Snap: snap})
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

// codedTable builds a 40-row table whose TEXT column name cycles through a
// handful of values, NULL and the empty string among them, so that a sealed
// segment's dictionary is far shorter than its rows. sealed seals it into
// one segment (a coded name vector); otherwise it stays a row tail, which a
// scan transposes into plain vectors: the Str path.
func codedTable(t *testing.T, sealed bool) (*storage.Table, *txn.Manager) {
	t.Helper()
	schema, err := storage.NewSchema([]storage.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable("N", schema)
	tbl.SetSealThreshold(-1)
	names := []types.Value{
		types.NewString("idle"), types.NewString("busy"), types.NewString("down"), types.Null,
		types.NewString(""), types.NewString("idle"), types.NewString("Busy"), types.NewString("b%"),
	}
	m := txn.NewManager()
	tx := m.Begin()
	for i := 0; i < 40; i++ {
		if err := tx.InsertRow(tbl, storage.NewRow([]types.Value{types.NewInt(int64(i)), names[i%len(names)]}, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if sealed {
		tbl.Seal()
	}
	return tbl, m
}

// codedCorpus is every NULL-dropping TEXT conjunct shape over name, with
// NULL list members and LIKE patterns; the conjunctions after an id bound
// leave fewer rows selected than the dictionary holds (the per-row branch).
var codedCorpus = []string{
	"name = 'idle'", "name <> 'idle'", "name = ''", "name = 'absent'",
	"name < 'down'", "name >= 'busy'", "name > ''",
	"name BETWEEN 'b' AND 'e'", "name NOT BETWEEN 'b' AND 'e'",
	"name IN ('idle', 'down')", "name NOT IN ('idle')", "name IN ('idle', NULL)",
	"name NOT IN ('idle', NULL)", "name NOT IN ('absent', NULL)", "name IN ('Busy', 1)",
	"name LIKE 'b%'", "name NOT LIKE '%d%'", "name LIKE ''",
	"name IS NULL", "name IS NOT NULL",
	"id < 3 AND name = 'idle'", "id = 17 AND name NOT IN ('busy', NULL)", "id > 35 AND name LIKE '%e'",
	"name <> 'busy' AND name NOT IN ('idle')",
}

// TestCodedSegmentMatchesStrPath: a sealed segment's coded TEXT vector —
// built at seal, and again when the segment is decoded from a segment file —
// answers every conjunct exactly as the plain Str vectors of a row tail do,
// and as the predicate evaluated row by row.
func TestCodedSegmentMatchesStrPath(t *testing.T) {
	sealed, sm := codedTable(t, true)
	tail, tm := codedTable(t, false)
	segs := sealed.Snap().Segments
	if len(segs) != 1 || segs[0].Cols[1].Dict == nil || len(segs[0].Cols[1].Dict) >= segs[0].Len() {
		t.Fatalf("fixture: want one segment with a short dictionary, got %d segments", len(segs))
	}
	var file bytes.Buffer
	if err := storage.WriteSegmentFile(&file, sealed.Schema, segs); err != nil {
		t.Fatal(err)
	}
	decoded, err := storage.ReadSegmentFile(bytes.NewReader(file.Bytes()), int64(file.Len()), sealed.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(decoded[0].Cols[1].Dict), fmt.Sprint(segs[0].Cols[1].Dict); got != want {
		t.Fatalf("decoded dictionary %s, sealed %s", got, want)
	}
	restored := storage.NewTable("N", sealed.Schema)
	restored.SetSpill(func() ([]*storage.Segment, []*storage.Row, error) { return decoded, nil, nil }, nil)
	rm := txn.NewManager()
	if err := rm.Begin().Commit(); err != nil { // the bootstrap commit decoded rows are stamped with
		t.Fatal(err)
	}
	for _, expr := range codedCorpus {
		want := rowIDs(t, tail, tm, expr)
		str, _, _ := segIDs(t, tail, tm, expr)
		coded, _, _ := segIDs(t, sealed, sm, expr)
		dec, _, _ := segIDs(t, restored, rm, expr)
		if !idsEqual(str, want) || !idsEqual(coded, want) || !idsEqual(dec, want) {
			t.Errorf("%q: coded %v, decoded %v, Str path %v, row by row %v", expr, coded, dec, str, want)
		}
	}
}

// TestCodedKernelBranches: over a coded vector a value conjunct's loop runs
// once per dictionary entry while the dictionary is shorter than the
// selection, over the selected rows otherwise; IS NULL always reads the
// rows.
func TestCodedKernelBranches(t *testing.T) {
	tbl, _ := codedTable(t, true)
	cv := &tbl.Snap().Segments[0].Cols[1]
	var saw int
	keepAll := func(_ *storage.ColVec, sel []int) ([]int, error) {
		saw = len(sel)
		return sel, nil
	}
	run := func(byValue bool, sel []int) int {
		b := &Batch{Cols: []*storage.ColVec{nil, cv}, Sel: append([]int(nil), sel...)}
		if err := colKernel(1, keepAll, byValue)(b); err != nil {
			t.Fatal(err)
		}
		return saw
	}
	all := make([]int, len(cv.Str))
	for i := range all {
		all[i] = i
	}
	if got := run(true, all); got != len(cv.Dict) {
		t.Errorf("whole segment: loop saw %d values, want the %d dictionary entries", got, len(cv.Dict))
	}
	if got := run(true, all[:2]); got != 2 {
		t.Errorf("two rows selected: loop saw %d, want the 2 rows", got)
	}
	if got := run(false, all); got != len(all) {
		t.Errorf("IS NULL shape: loop saw %d, want every one of %d rows", got, len(all))
	}
}

// TestKeepByCodeMasksNullSlots: a NULL slot of a coded vector carries code
// 0, which is also Dict[0], so an outcome that keeps Dict[0] must still drop
// every NULL row — whether the loop keeps Dict[0] alone, every code, or
// none, and whatever order the selection is in.
func TestKeepByCodeMasksNullSlots(t *testing.T) {
	tbl, _ := codedTable(t, true)
	cv := &tbl.Snap().Segments[0].Cols[1]
	nulls := 0
	for i := range cv.Nulls {
		if cv.Nulls[i] {
			nulls++
			if cv.Codes[i] != 0 {
				t.Fatalf("fixture: NULL slot %d carries code %d, want 0", i, cv.Codes[i])
			}
		}
	}
	if nulls == 0 || cv.Dict[0] != "" {
		t.Fatalf("fixture: want NULL slots and Dict[0] = \"\", got %d NULLs and %q", nulls, cv.Dict[0])
	}
	keepCodes := func(codes ...int) selLoop {
		return func(_ *storage.ColVec, _ []int) ([]int, error) { return codes, nil }
	}
	every := make([]int, len(cv.Dict))
	for c := range every {
		every[c] = c
	}
	for _, tc := range []struct {
		name string
		loop selLoop
		keep func(s string) bool
	}{
		{"Dict[0] alone", keepCodes(0), func(s string) bool { return s == "" }},
		{"every code", keepCodes(every...), func(string) bool { return true }},
		{"no code", keepCodes(), func(string) bool { return false }},
	} {
		for _, reversed := range []bool{false, true} {
			var sel, want []int
			for i := range cv.Str {
				p := i
				if reversed {
					p = len(cv.Str) - 1 - i
				}
				sel = append(sel, p)
				if !cv.Nulls[p] && tc.keep(cv.Str[p]) {
					want = append(want, p)
				}
			}
			b := &Batch{Cols: []*storage.ColVec{nil, cv}, Sel: sel}
			if err := b.keepByCode(cv, tc.loop); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(b.Sel) != fmt.Sprint(want) {
				t.Errorf("%s (reversed %v): kept %v, want %v", tc.name, reversed, b.Sel, want)
			}
		}
	}
}

// TestCodedKeyProbe: a key probe over a coded vector, which looks each code
// up once, finds exactly the chain heads — and stops exactly where — the
// probe over the same vector's Str payload does.
func TestCodedKeyProbe(t *testing.T) {
	tbl, _ := codedTable(t, true)
	coded := &tbl.Snap().Segments[0].Cols[1]
	plain := *coded
	plain.Dict, plain.Codes = nil, nil
	idx := newKeyIndex(1, 4)
	var buf []byte
	for id, k := range []string{"idle", "down", "", "idle"} {
		idx.add(int32(id), []types.Value{types.NewString(k)}, &buf)
	}
	probe := func(cv *storage.ColVec, stopAfter int) (string, int) {
		b := &Batch{Cols: []*storage.ColVec{nil, cv}}
		for i := range cv.Str {
			b.Sel = append(b.Sel, i)
		}
		var hits []string
		n, err := idx.probe(b, []int{1}, nil, &buf, func(pos int, head int32) (bool, error) {
			hits = append(hits, fmt.Sprintf("%d:%d", pos, head))
			return len(hits) < stopAfter, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(hits), n
	}
	for _, stop := range []int{1, 7, 1 << 20} {
		gotHits, gotN := probe(coded, stop)
		wantHits, wantN := probe(&plain, stop)
		if gotHits != wantHits || gotN != wantN {
			t.Errorf("stop after %d: coded probe %s (%d examined), Str probe %s (%d examined)", stop, gotHits, gotN, wantHits, wantN)
		}
	}
}

// TestSettledSegmentsSkipVisibility: a scan selects every version of a
// settled segment without checking one — VersionsVisited does not move —
// when the segment settled before the snapshot; a segment with an in-flight
// or aborted creator or a delete mark, or a snapshot older than the
// segment's latest creator, takes the per-row check, and every case answers
// what checking each version does.
func TestSettledSegmentsSkipVisibility(t *testing.T) {
	type fixture struct {
		tbl *storage.Table
		m   *txn.Manager
	}
	build := func(t *testing.T, batches ...int) fixture {
		schema, err := storage.NewSchema([]storage.Column{{Name: "id", Kind: types.KindInt}})
		if err != nil {
			t.Fatal(err)
		}
		f := fixture{storage.NewTable("S", schema), txn.NewManager()}
		f.tbl.SetSealThreshold(-1)
		id := 0
		for _, n := range batches {
			tx := f.m.Begin()
			for i := 0; i < n; i++ {
				tx.InsertRow(f.tbl, storage.NewRow([]types.Value{types.NewInt(int64(id))}, 0))
				id++
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	// check scans under snap, holds the answer to the per-row one and returns
	// how many versions the scan checked.
	check := func(t *testing.T, f fixture, snap txn.Snapshot) int64 {
		t.Helper()
		before := f.tbl.VersionsVisited()
		rows, err := Drain(&BatchScan{Table: f.tbl, Snap: snap})
		if err != nil {
			t.Fatal(err)
		}
		visited := f.tbl.VersionsVisited() - before
		if want := visibleRows(t, f.tbl, snap, ""); len(rows) != len(want) {
			t.Errorf("scan returned %d rows, per-row visibility %d", len(rows), len(want))
		}
		return visited
	}

	t.Run("settled", func(t *testing.T) {
		f := build(t, 8, 8)
		f.tbl.Seal()
		if n := check(t, f, f.m.ReadSnapshot()); n != 0 {
			t.Errorf("settled segment: %d versions checked, want 0", n)
		}
	})
	t.Run("older snapshot", func(t *testing.T) {
		f := build(t, 8)
		old := f.m.ReadSnapshot()
		tx := f.m.Begin()
		for i := 0; i < 8; i++ {
			tx.InsertRow(f.tbl, storage.NewRow([]types.Value{types.NewInt(int64(100 + i))}, 0))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		f.tbl.Seal()
		if n := check(t, f, old); n != 16 {
			t.Errorf("snapshot before the latest creator: %d versions checked, want 16", n)
		}
		if n := check(t, f, f.m.ReadSnapshot()); n != 0 {
			t.Errorf("snapshot after it: %d versions checked, want 0", n)
		}
	})
	t.Run("in-flight creator", func(t *testing.T) {
		f := build(t, 8)
		tx := f.m.Begin()
		tx.InsertRow(f.tbl, storage.NewRow([]types.Value{types.NewInt(99)}, 0))
		f.tbl.Seal()
		if n := check(t, f, f.m.ReadSnapshot()); n != 9 {
			t.Errorf("in-flight creator: %d versions checked, want 9", n)
		}
		if n := check(t, f, tx.Snapshot()); n != 9 {
			t.Errorf("the creator's own snapshot: %d versions checked, want 9", n)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if n := check(t, f, f.m.ReadSnapshot()); n != 0 {
			t.Errorf("once committed: %d versions checked, want 0", n)
		}
	})
	t.Run("aborted creator", func(t *testing.T) {
		f := build(t, 8)
		tx := f.m.Begin()
		tx.InsertRow(f.tbl, storage.NewRow([]types.Value{types.NewInt(99)}, 0))
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		f.tbl.Seal()
		if n := check(t, f, f.m.ReadSnapshot()); n != 9 {
			t.Errorf("aborted creator: %d versions checked, want 9", n)
		}
	})
	t.Run("delete mark", func(t *testing.T) {
		f := build(t, 8)
		f.tbl.Seal()
		if n := check(t, f, f.m.ReadSnapshot()); n != 0 {
			t.Fatalf("before the delete: %d versions checked, want 0", n)
		}
		tx := f.m.Begin()
		if err := tx.Delete(f.tbl, f.tbl.Rows()[3]); err != nil {
			t.Fatal(err)
		}
		if n := check(t, f, f.m.ReadSnapshot()); n != 8 {
			t.Errorf("in-flight delete mark: %d versions checked, want 8", n)
		}
		if n := check(t, f, tx.Snapshot()); n != 8 {
			t.Errorf("the deleter's own snapshot: %d versions checked, want 8", n)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if n := check(t, f, f.m.ReadSnapshot()); n != 8 {
			t.Errorf("committed delete mark: %d versions checked, want 8", n)
		}
	})
}

// codedActivity builds 50 sealed segments of Activity: 100 sources,
// clustered as ingestion writes them, and a two-valued TEXT column.
func codedActivity(b *testing.B) (*storage.Table, *txn.Manager) {
	schema, err := storage.NewSchema([]storage.Column{
		{Name: "mach_id", Kind: types.KindString},
		{Name: "value", Kind: types.KindString},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := schema.SetSourceColumn("mach_id"); err != nil {
		b.Fatal(err)
	}
	tbl := storage.NewTable("Activity", schema)
	const rows = 50 * storage.DefaultSegmentSize
	m := txn.NewManager()
	tx := m.Begin()
	values := [2]types.Value{types.NewString("busy"), types.NewString("idle")}
	for i := 0; i < rows; i++ {
		src := types.NewString(fmt.Sprintf("Tao%d", 1+i/(rows/100)))
		tx.InsertRow(tbl, storage.NewRow([]types.Value{src, values[i*7919%13%2]}, 0))
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	if n := tbl.NumSegments(); n != 50 {
		b.Fatalf("%d segments, want 50", n)
	}
	return tbl, m
}

// BenchmarkCodedScan scans codedActivity with a coded NOT IN and = — the
// shape of the paper's Q2 — counting the rows that survive.
func BenchmarkCodedScan(b *testing.B) {
	tbl, m := codedActivity(b)
	rows := tbl.NumVersions()
	layout := layoutFor(tbl, "a")
	e, err := sqlparser.ParseExpr(`mach_id NOT IN ('Tao1', 'Tao10', 'Tao20', 'Tao30', 'Tao40', 'Tao50') AND value = 'idle'`)
	if err != nil {
		b.Fatal(err)
	}
	k, _, _, err := CompileKernel(e, layout)
	if err != nil {
		b.Fatal(err)
	}
	segf, err := CompileSegmentFilter(e, layout, 0, tbl.Schema.NumColumns())
	if err != nil {
		b.Fatal(err)
	}
	snap := m.ReadSnapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan := &BatchScan{Table: tbl, Snap: snap, Kernel: k, SegFilter: segf}
		if err := scan.Open(); err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			batch, err := scan.NextBatch()
			if err != nil {
				b.Fatal(err)
			}
			if batch == nil {
				break
			}
			n += batch.Len()
			PutBatch(batch)
		}
		scan.Close()
		if n == 0 || n >= rows {
			b.Fatalf("%d of %d rows survived", n, rows)
		}
	}
}

// BenchmarkCodedGroupBy counts codedActivity's rows per source and per
// value — GROUP BY over a coded key, the shape of the workloads' per-source
// and per-status counts — resolving each segment's groups once per code.
func BenchmarkCodedGroupBy(b *testing.B) {
	tbl, m := codedActivity(b)
	layout := layoutFor(tbl, "a")
	snap := m.ReadSnapshot()
	for _, key := range []struct {
		name   string
		col    int
		groups int
	}{{"mach_id", 0, 100}, {"value", 1, 2}} {
		b.Run(key.name, func(b *testing.B) {
			ev, err := Compile(&sqlparser.ColumnRef{Column: key.name}, layout)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := Drain(&BatchGroupAggregate{
					Src:     &BatchScan{Table: tbl, Snap: snap, Need: []int{key.col}},
					Keys:    []Evaluator{ev},
					KeyCols: []int{key.col},
					Specs:   []AggSpec{{Func: sqlparser.FuncCount, Star: true}},
				})
				if err != nil || len(rows) != key.groups {
					b.Fatalf("%d groups, err %v", len(rows), err)
				}
			}
		})
	}
}
