package storage

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"trac/internal/types"
)

func segTestSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "src", Kind: types.KindString},
		{Name: "val", Kind: types.KindFloat},
		{Name: "at", Kind: types.KindTime},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetSourceColumn("src"); err != nil {
		t.Fatal(err)
	}
	return s
}

func segTestRows(n int) []*Row {
	rows := make([]*Row, n)
	for i := 0; i < n; i++ {
		vals := []types.Value{
			types.NewInt(int64(i)),
			types.NewString([]string{"alpha", "beta", "gamma"}[i%3]),
			types.NewFloat(float64(i) / 2),
			types.NewTimeNanos(int64(1_000_000 + i)),
		}
		if i%7 == 0 {
			vals[2] = types.Null
		}
		r := NewRow(vals, 1)
		r.XminSeq.Store(1)
		rows[i] = r
	}
	return rows
}

func TestSegmentFileRoundTrip(t *testing.T) {
	schema := segTestSchema(t)
	rows := segTestRows(250)
	segs := CompactSegments(rows, schema, 100)
	if len(segs) != 3 {
		t.Fatalf("CompactSegments made %d segments, want 3", len(segs))
	}

	var buf bytes.Buffer
	if err := WriteSegmentFile(&buf, schema, segs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSegmentFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()), schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(segs) {
		t.Fatalf("read %d segments, want %d", len(got), len(segs))
	}
	idx := 0
	for si, seg := range got {
		want := segs[si]
		if seg.Len() != want.Len() {
			t.Fatalf("segment %d has %d rows, want %d", si, seg.Len(), want.Len())
		}
		for i := 0; i < seg.Len(); i++ {
			for ci := range schema.Columns {
				g, w := seg.Rows[i].Values[ci], rows[idx].Values[ci]
				if g.String() != w.String() {
					t.Fatalf("seg %d row %d col %d = %v, want %v", si, i, ci, g, w)
				}
				if cv := seg.Cols[ci].Value(i); cv.String() != w.String() {
					t.Fatalf("seg %d colvec %d slot %d = %v, want %v", si, ci, i, cv, w)
				}
			}
			if seg.Rows[i].XminSeq.Load() != 1 {
				t.Fatal("recovered row not stamped visible")
			}
			idx++
		}
		// Decode rebuilds the zone maps and the source set the seal built.
		if !reflect.DeepEqual(seg.Zones, want.Zones) {
			t.Fatalf("seg %d zones = %+v, want %+v", si, seg.Zones, want.Zones)
		}
		if got, sealed := seg.Sources(1, seg.Rows), want.Sources(1, want.Rows); !reflect.DeepEqual(got, sealed) {
			t.Fatalf("seg %d sources = %v, want %v", si, got, sealed)
		}
		zid := seg.Zones[0]
		wid := want.Zones[0]
		if !zid.Ordered || zid.Min.String() != wid.Min.String() || zid.Max.String() != wid.Max.String() {
			t.Fatalf("seg %d id zone = [%v,%v], want [%v,%v]", si, zid.Min, zid.Max, wid.Min, wid.Max)
		}
		if !zid.SumValid || !zid.SumIntExact || zid.SumInt != wid.SumInt {
			t.Fatalf("seg %d id sums = %+v, want %+v", si, zid, wid)
		}
		if src := seg.Sources(1, seg.Rows); !slices.Contains(src, "alpha") || slices.Contains(src, "delta") {
			t.Fatalf("seg %d sources = %v", si, src)
		}
		zval := seg.Zones[2]
		if zval.NullCount != want.Zones[2].NullCount || !zval.SumValid || zval.Sum != want.Zones[2].Sum {
			t.Fatalf("seg %d val zone = %+v, want %+v", si, zval, want.Zones[2])
		}
	}
}

func TestSegmentFileRejectsCorruption(t *testing.T) {
	schema := segTestSchema(t)
	segs := CompactSegments(segTestRows(64), schema, 32)
	var buf bytes.Buffer
	if err := WriteSegmentFile(&buf, schema, segs); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()

	// Every strict prefix must be rejected, never decoded as valid data.
	for cut := 0; cut < len(base); cut += 37 {
		if _, err := ReadSegmentFile(bytes.NewReader(base[:cut]), int64(cut), schema); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", cut, len(base))
		}
	}
	// A single flipped bit anywhere must be caught by a checksum (or a
	// structural check) — walk a stride of positions.
	for pos := 0; pos < len(base); pos += 113 {
		mut := append([]byte(nil), base...)
		mut[pos] ^= 0x40
		if _, err := ReadSegmentFile(bytes.NewReader(mut), int64(len(mut)), schema); err == nil {
			t.Fatalf("bit flip at %d/%d accepted", pos, len(base))
		}
	}
}

func TestTableLazySpillHydration(t *testing.T) {
	schema := segTestSchema(t)
	segs := CompactSegments(segTestRows(200), schema, 100)
	loads := 0
	tbl := NewTable("Activity", schema)
	tbl.SetSpill(func() ([]*Segment, []*Row, error) {
		loads++
		return segs, nil, nil
	}, []int{0})

	if !tbl.Spilled() {
		t.Fatal("table should report spilled before first access")
	}
	// Appends do NOT hydrate: the spilled prefix stays cold.
	tail := segTestRows(5)
	for _, r := range tail {
		if err := tbl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if loads != 0 {
		t.Fatal("Append must not force hydration")
	}
	if cols := tbl.IndexedColumns(); len(cols) != 1 || cols[0] != 0 {
		t.Fatalf("IndexedColumns pre-hydration = %v", cols)
	}
	if loads != 0 {
		t.Fatal("IndexedColumns must not force hydration")
	}

	// First read access hydrates: spilled rows splice in FRONT of the tail.
	if n := tbl.NumVersions(); n != 205 {
		t.Fatalf("NumVersions = %d, want 205", n)
	}
	if loads != 1 {
		t.Fatalf("loads = %d, want exactly 1", loads)
	}
	if tbl.Spilled() {
		t.Fatal("table still spilled after hydration")
	}
	rows := tbl.Rows()
	if rows[0].Values[0].Int() != 0 || rows[200] != tail[0] {
		t.Fatal("hydration did not splice spilled rows before the tail")
	}
	if got := tbl.SealedRows(); got != 200 {
		t.Fatalf("SealedRows = %d, want 200", got)
	}
	if got := tbl.NumSegments(); got != 2 {
		t.Fatalf("NumSegments = %d, want 2", got)
	}
	// The pending index was built over spilled + appended rows.
	idx := tbl.Index(0)
	if idx == nil {
		t.Fatal("pending index missing after hydration")
	}
	if got := len(idx.Lookup(types.NewInt(3))); got != 2 {
		// id=3 exists once in the spilled prefix and once in the tail.
		t.Fatalf("index lookup = %d rows, want 2", got)
	}
	// Snap sees the full dual-format heap.
	snap := tbl.Snap()
	if snap.Len() != 205 || snap.Sealed != 200 || len(snap.Segments) != 2 {
		t.Fatalf("snap = len %d sealed %d segs %d", snap.Len(), snap.Sealed, len(snap.Segments))
	}
}

func TestTableSpillLoadErrorSurfacesViaHydrate(t *testing.T) {
	schema := segTestSchema(t)
	tbl := NewTable("T", schema)
	tbl.SetSpill(func() ([]*Segment, []*Row, error) {
		return nil, nil, bytes.ErrTooLarge // any sentinel
	}, nil)
	if err := tbl.Hydrate(); err == nil {
		t.Fatal("Hydrate should surface the load error")
	}
	// The error is sticky (the load is not retried into a corrupt state).
	if err := tbl.Hydrate(); err == nil {
		t.Fatal("Hydrate error should be sticky")
	}
}
