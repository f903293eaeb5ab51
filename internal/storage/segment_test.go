package storage

import (
	"fmt"
	"sync"
	"testing"

	"trac/internal/types"
)

func segSchema(t *testing.T) *Schema {
	t.Helper()
	schema, err := NewSchema([]Column{
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
	return schema
}

func segRow(id int64, src string, score float64, nullScore bool) *Row {
	sc := types.NewFloat(score)
	if nullScore {
		sc = types.Null
	}
	return NewRow([]types.Value{types.NewInt(id), types.NewString(src), sc}, 1)
}

func TestSealBuildsTypedVectorsAndZoneMaps(t *testing.T) {
	tbl := NewTable("t", segSchema(t))
	tbl.SetSealThreshold(-1)
	for i := 0; i < 100; i++ {
		src := "alpha"
		if i >= 50 {
			src = "beta"
		}
		tbl.Append(segRow(int64(i), src, float64(i)/10, i%10 == 3))
	}
	if n := tbl.Seal(); n != 1 {
		t.Fatalf("Seal created %d segments, want 1", n)
	}
	snap := tbl.Snap()
	if len(snap.Segments) != 1 || snap.Sealed != 100 || len(snap.Tail()) != 0 {
		t.Fatalf("snapshot: %d segments, sealed %d, tail %d", len(snap.Segments), snap.Sealed, len(snap.Tail()))
	}
	seg := snap.Segments[0]

	// Every column value round-trips through the vectors.
	for ci := 0; ci < 3; ci++ {
		if !seg.Cols[ci].Pure {
			t.Fatalf("column %d not pure", ci)
		}
		for i, r := range seg.Rows {
			got, want := seg.Cols[ci].Value(i), r.Values[ci]
			if got.IsNull() != want.IsNull() || (!got.IsNull() && !types.Equal(got, want)) {
				t.Fatalf("col %d row %d: vector %v, heap %v", ci, i, got, want)
			}
		}
	}

	// Zone maps: id bounds, score null count, source distinct set.
	idZone := seg.Zones[0]
	if !idZone.Ordered || idZone.Min.Int() != 0 || idZone.Max.Int() != 99 || idZone.NullCount != 0 {
		t.Fatalf("id zone: %+v", idZone)
	}
	scoreZone := seg.Zones[2]
	if scoreZone.NullCount != 10 {
		t.Fatalf("score nulls = %d, want 10", scoreZone.NullCount)
	}
	if got := seg.Sources(1, seg.Rows); fmt.Sprint(got) != "[alpha beta]" {
		t.Fatalf("source set = %v", got)
	}
	if got := seg.Sources(0, seg.Rows); got != nil {
		t.Fatalf("a set tracked for a column that is not the source: %v", got)
	}
}

func TestSealDemotesMixedKindColumn(t *testing.T) {
	schema, err := NewSchema([]Column{{Name: "v", Kind: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("t", schema)
	tbl.SetSealThreshold(-1)
	// The direct storage API can slip a string into a BIGINT column; the
	// sealer must fall back to generic values and drop the bounds.
	tbl.Append(NewRow([]types.Value{types.NewInt(1)}, 1))
	tbl.Append(NewRow([]types.Value{types.NewString("rogue")}, 1))
	tbl.Append(NewRow([]types.Value{types.NewInt(3)}, 1))
	tbl.Seal()
	seg := tbl.Snap().Segments[0]
	col := &seg.Cols[0]
	if col.Pure {
		t.Fatal("mixed-kind column stayed pure")
	}
	if got := col.Value(1); got.Kind() != types.KindString || got.Str() != "rogue" {
		t.Fatalf("Value(1) = %v", got)
	}
	if seg.Zones[0].Ordered {
		t.Fatal("unorderable column kept Ordered zone map")
	}
}

func TestAutoSealThreshold(t *testing.T) {
	tbl := NewTable("t", segSchema(t))
	tbl.SetSealThreshold(32)
	for i := 0; i < 100; i++ {
		tbl.Append(segRow(int64(i), "s", 0, false))
	}
	if got := tbl.NumSegments(); got != 3 {
		t.Fatalf("auto-sealed %d segments, want 3 (32-row threshold, 100 rows)", got)
	}
	if got := tbl.SealedRows(); got != 96 {
		t.Fatalf("sealed %d rows, want 96", got)
	}
	if got := len(tbl.Snap().Tail()); got != 4 {
		t.Fatalf("tail %d rows, want 4", got)
	}
}

// TestAgedTailSealsEarly: a table rewritten in place seals its tail once it
// holds agedTailFactor versions per live row, long before the threshold; an
// insert-only table, whose tail never outgrows its live rows, does not.
func TestAgedTailSealsEarly(t *testing.T) {
	const live = 50
	hot := NewTable("heartbeat", segSchema(t))
	for i := 0; i < live; i++ {
		hot.Append(segRow(int64(i), "s", 0, false))
	}
	for round := 1; round <= 20; round++ {
		for i := 0; i < live; i++ {
			hot.Append(segRow(int64(i), "s", float64(round), false))
			hot.NoteDead(1)
		}
	}
	if tail := len(hot.Snap().Tail()); tail > agedTailFactor*live+1 {
		t.Errorf("rewritten table keeps a tail of %d versions for %d live rows", tail, live)
	}
	if hot.NumSegments() < 4 || hot.SealedRows()+len(hot.Snap().Tail()) != hot.NumVersions() {
		t.Errorf("%d segments over %d of %d versions", hot.NumSegments(), hot.SealedRows(), hot.NumVersions())
	}

	cold := NewTable("activity", segSchema(t))
	for i := 0; i < DefaultSegmentSize-1; i++ {
		cold.Append(segRow(int64(i), "s", 0, false))
	}
	if cold.NumSegments() != 0 {
		t.Errorf("insert-only table sealed %d segments below the threshold", cold.NumSegments())
	}
}

func TestSealEmptyTableAndOversizedThreshold(t *testing.T) {
	tbl := NewTable("t", segSchema(t))
	if n := tbl.Seal(); n != 0 {
		t.Fatalf("sealing an empty table created %d segments", n)
	}
	if u, ok := tbl.Morsels().Claim(); ok {
		t.Fatalf("empty table produced a unit: %+v", u)
	}
	// Threshold larger than the heap: everything stays in the tail.
	tbl.SetSealThreshold(1 << 20)
	for i := 0; i < 10; i++ {
		tbl.Append(segRow(int64(i), "s", 0, false))
	}
	if tbl.NumSegments() != 0 {
		t.Fatal("oversized threshold still sealed")
	}
	// Explicit Seal with fewer rows than DefaultSegmentSize: one short segment.
	if n := tbl.Seal(); n != 1 {
		t.Fatalf("Seal created %d segments, want 1", n)
	}
	if got := tbl.Snap().Segments[0].Len(); got != 10 {
		t.Fatalf("short segment has %d rows, want 10", got)
	}
}

func TestMixedSnapshotUnitsShareHeap(t *testing.T) {
	tbl := NewTable("t", segSchema(t))
	tbl.SetSealThreshold(-1)
	for i := 0; i < 50; i++ {
		tbl.Append(segRow(int64(i), "s", 0, false))
	}
	tbl.Seal()
	const rows = 50 + 2*WindowSize + 25
	for i := 50; i < rows; i++ {
		tbl.Append(segRow(int64(i), "s", 0, false))
	}
	snap := tbl.Snap()
	m := snap.Morsels()
	// 1 segment unit + 3 tail windows of 1,024/1,024/25.
	if m.NumMorsels() != 4 {
		t.Fatalf("NumMorsels = %d, want 4", m.NumMorsels())
	}
	seen := map[int64]int{}
	for _, u := range claimAll(m) {
		if u.Seg.Zones != nil && len(u.Rows) != 50 {
			t.Fatalf("sealed segment unit has %d rows", len(u.Rows))
		}
		for _, r := range u.Rows {
			seen[r.Values[0].Int()]++
		}
	}
	if len(seen) != rows {
		t.Fatalf("units covered %d distinct rows, want %d", len(seen), rows)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("row %d covered %d times", id, c)
		}
	}
	// The units alias the snapshot's heap slice — same *Row pointers.
	units := makeUnits(snap)
	if u := units[0]; u.Rows[0] != snap.Rows[0] {
		t.Fatal("segment unit does not share the snapshot heap")
	}
	if u := units[2]; u.Seg.Zones != nil || u.Rows[0] != snap.Rows[50+WindowSize] {
		t.Fatal("window unit does not share the snapshot heap")
	}
}

// TestAppendsRacingLiveScan runs appends (with auto-sealing) concurrently
// with snapshot scans; under -race this pins the locking discipline of the
// dual-format heap. Each scan must see a consistent prefix: every row
// present at snapshot time, none appended after.
func TestAppendsRacingLiveScan(t *testing.T) {
	tbl := NewTable("t", segSchema(t))
	tbl.SetSealThreshold(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tbl.Append(segRow(int64(i), "s", float64(i), false))
		}
	}()
	for iter := 0; iter < 200; iter++ {
		snap := tbl.Snap()
		next := int64(0)
		for _, u := range claimAll(snap.Morsels()) {
			for _, r := range u.Rows {
				if got := r.Values[0].Int(); got != next {
					t.Errorf("iter %d: saw id %d, want %d", iter, got, next)
					close(stop)
					wg.Wait()
					return
				}
				next++
			}
		}
		if next != int64(snap.Len()) {
			t.Errorf("iter %d: scanned %d rows, snapshot has %d", iter, next, snap.Len())
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestSettledHoldsUntilTheNextDeleteMark: a segment whose creators all
// committed and whose versions carry no delete mark is settled at its latest
// creator's sequence; the answer is cached until the table takes a delete
// mark, and a segment with an uncommitted, aborted or deleted version is
// never settled.
func TestSettledHoldsUntilTheNextDeleteMark(t *testing.T) {
	tbl := NewTable("t", segSchema(t))
	tbl.SetSealThreshold(-1)
	for i := 0; i < 8; i++ {
		r := segRow(int64(i), "s", 0, false)
		r.XminSeq.Store(uint64(3 + i%2))
		tbl.Append(r)
	}
	tbl.Seal()
	seg := tbl.Snap().Segments[0]
	if seq, ok := tbl.Settled(seg, seg.Rows); !ok || seq != 4 {
		t.Fatalf("Settled = %d, %v; want 4, true", seq, ok)
	}

	// The cache answers without reading the rows: a mark set behind the
	// table's back goes unseen until the table is told of it.
	seg.Rows[5].Xmax.Store(9)
	if _, ok := tbl.Settled(seg, seg.Rows); !ok {
		t.Fatal("settled answer not cached")
	}
	tbl.NoteDeleteMark()
	if _, ok := tbl.Settled(seg, seg.Rows); ok {
		t.Fatal("settled with a delete-marked version")
	}
	seg.Rows[5].Xmax.Store(0) // the deleter aborted and released its mark
	if seq, ok := tbl.Settled(seg, seg.Rows); !ok || seq != 4 {
		t.Fatalf("after the release Settled = %d, %v; want 4, true", seq, ok)
	}

	for _, creator := range []uint64{0, AbortedSeq} {
		seg.Rows[2].XminSeq.Store(creator)
		tbl.NoteDeleteMark() // drop the cache
		if _, ok := tbl.Settled(seg, seg.Rows); ok {
			t.Errorf("settled with a version whose creator seq is %d", creator)
		}
	}
}
