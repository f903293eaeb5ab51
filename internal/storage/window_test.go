package storage

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"trac/internal/types"
)

// TestWindowSourcesGate: a full tail window's source set — its distinct
// non-NULL sources, sorted — stands for the window under the gate Settled
// keeps for a sealed segment: every creator committed at or before the
// snapshot and no delete mark, re-checked after the table's next mark. It is
// withheld for an uncommitted or aborted creator, a delete mark, an older
// snapshot, a window over MaxZoneSources or with a source that is not TEXT,
// and a partial window, and sealing drops the window with its set.
func TestWindowSourcesGate(t *testing.T) {
	build := func(t *testing.T, rows int, srcs func(i int) types.Value) *Table {
		tbl := NewTable("t", segSchema(t))
		tbl.SetSealThreshold(-1)
		for i := 0; i < rows; i++ {
			r := NewRow([]types.Value{types.NewInt(int64(i)), srcs(i), types.Null}, 1)
			r.XminSeq.Store(uint64(3 + i%2))
			tbl.Append(r)
		}
		return tbl
	}
	clustered := func(i int) types.Value {
		if i%6 == 5 {
			return types.Null
		}
		return types.NewString(fmt.Sprintf("m%d", 3-i/WindowSize)) // a window each of m3, m2, m1
	}
	unit := func(tbl *Table, k int) Morsel { return makeUnits(tbl.Snap())[k] }
	sources := func(tbl *Table, k int, seq uint64) ([]string, bool) {
		u := unit(tbl, k)
		set := u.Seg.Sources(tbl.Schema.SourceColumn, u.Rows)
		last, ok := tbl.Settled(u.Seg, u.Rows)
		return set, set != nil && ok && last <= seq
	}

	t.Run("settled", func(t *testing.T) {
		tbl := build(t, 3*WindowSize+10, clustered)
		for k, want := range []string{"[m3]", "[m2]", "[m1]"} {
			if got, ok := sources(tbl, k, 4); !ok || fmt.Sprint(got) != want {
				t.Fatalf("window %d: sources = %v, %v; want %s, true", k, got, ok, want)
			}
		}
		if got, ok := sources(tbl, 3, 9); ok {
			t.Fatalf("partial window: sources = %v, true", got)
		}
	})
	t.Run("snapshot older than the latest creator", func(t *testing.T) {
		tbl := build(t, 2*WindowSize, clustered)
		if _, ok := sources(tbl, 1, 3); ok {
			t.Fatal("set used under a snapshot older than the window's latest creator")
		}
		if _, ok := sources(tbl, 1, 4); !ok {
			t.Fatal("set withheld from a snapshot at the latest creator")
		}
	})
	for _, creator := range []uint64{0, AbortedSeq} {
		t.Run(fmt.Sprintf("creator seq %d", creator), func(t *testing.T) {
			tbl := build(t, 2*WindowSize, clustered)
			unit(tbl, 1).Rows[3].XminSeq.Store(creator) // in flight (an own insert too) or aborted
			if _, ok := sources(tbl, 1, 9); ok {
				t.Fatal("set used over a version without a committed creator")
			}
			unit(tbl, 1).Rows[3].XminSeq.Store(4) // it committed
			if got, ok := sources(tbl, 1, 9); !ok || fmt.Sprint(got) != "[m2]" {
				t.Fatalf("once committed: %v, %v; want [m2], true", got, ok)
			}
		})
	}
	t.Run("delete mark after the summary", func(t *testing.T) {
		tbl := build(t, 3*WindowSize, clustered)
		if _, ok := sources(tbl, 1, 9); !ok {
			t.Fatal("set withheld before the delete")
		}
		unit(tbl, 1).Rows[1].Xmax.Store(7)
		tbl.NoteDeleteMark()
		if _, ok := sources(tbl, 1, 9); ok {
			t.Fatal("set used over a delete-marked version")
		}
		if _, ok := sources(tbl, 2, 9); !ok {
			t.Fatal("a mark in another window withheld this one's set")
		}
	})
	t.Run("over the cap", func(t *testing.T) {
		// Window 0 holds MaxZoneSources+1 sources, window 1 exactly
		// MaxZoneSources.
		tbl := build(t, 2*WindowSize, func(i int) types.Value {
			return types.NewString(fmt.Sprintf("s%d", i%(MaxZoneSources+1-i/WindowSize)))
		})
		if _, ok := sources(tbl, 0, 9); ok {
			t.Fatal("set used for a window over MaxZoneSources")
		}
		if got, ok := sources(tbl, 1, 9); !ok || len(got) != MaxZoneSources {
			t.Fatalf("a window of MaxZoneSources sources: %d, %v", len(got), ok)
		}
	})
	t.Run("a source that is not TEXT", func(t *testing.T) {
		tbl := build(t, 2*WindowSize, func(i int) types.Value {
			if i == WindowSize+7 {
				return types.NewInt(7) // only the storage API lets it in
			}
			return clustered(i)
		})
		if _, ok := sources(tbl, 1, 9); ok {
			t.Fatal("set used for a window with a non-TEXT source")
		}
		if _, ok := sources(tbl, 0, 9); !ok {
			t.Fatal("a demoted window withheld another window's set")
		}
	})
	t.Run("sealing drops it", func(t *testing.T) {
		tbl := build(t, 2*WindowSize, clustered)
		if _, ok := sources(tbl, 1, 9); !ok {
			t.Fatal("set withheld")
		}
		tbl.SetSealThreshold(WindowSize)
		tbl.Seal()
		if len(tbl.wins) != 0 || len(tbl.Snap().wins) != 0 {
			t.Fatalf("%d windows left after sealing every window", len(tbl.wins))
		}
		if seg := tbl.Snap().Segments[1]; fmt.Sprint(seg.Sources(1, seg.Rows)) != "[m2]" {
			t.Fatalf("the segment's own set is %v, want [m2]", seg.Sources(1, seg.Rows))
		}
	})
}

// tailSchema has a column of every kind, the TEXT one the source column,
// and a BIGINT column the storage API writes TEXT values into now and then.
func tailSchema(t testing.TB) *Schema {
	t.Helper()
	schema, err := NewSchema([]Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "src", Kind: types.KindString},
		{Name: "score", Kind: types.KindFloat},
		{Name: "at", Kind: types.KindTime},
		{Name: "ok", Kind: types.KindBool},
		{Name: "mixed", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.SetSourceColumn("src"); err != nil {
		t.Fatal(err)
	}
	return schema
}

// tailRow is row i of TestTailWindowsMatchRows' tables: every column NULL
// now and then, sources in runs of 37 rows, and a TEXT value in the BIGINT
// column mixed every 499 rows.
func tailRow(i int) *Row {
	v := []types.Value{
		types.NewInt(int64(i)),
		types.NewString(fmt.Sprintf("m%d", (i/37)%20)),
		types.NewFloat(float64(i%100) / 10),
		types.NewTimeNanos(int64(i) * 1e9),
		types.NewBool(i%3 == 0),
		types.NewInt(int64(i % 50)),
	}
	for c, every := range []int{0, 11, 5, 13, 17, 7} {
		if every > 0 && i%every == 0 {
			v[c] = types.Null
		}
	}
	if i%499 == 7 {
		v[5] = types.NewString("x")
	}
	r := NewRow(v, 1)
	r.XminSeq.Store(1)
	return r
}

// TestTailWindowsMatchRows: whatever path put rows into a table — appends
// one at a time or in one run, under every seal threshold, an aged tail
// sealed early, a table restored from a segment file under rows appended
// since, a spilled temp table — its snapshot's windows hold exactly the
// tail rows' values, WindowSize rows each but the last, and each segment
// sealed from windows equals the segment sealed from its rows' values,
// with the zone maps a value-by-value pass computes. A snapshot taken
// before a kind demotion keeps reading the window it saw.
func TestTailWindowsMatchRows(t *testing.T) {
	const rows = 5000
	build := func(threshold int, bulk bool) *Table {
		tbl := NewTable("t", tailSchema(t))
		tbl.SetSealThreshold(threshold)
		var all []*Row
		for i := 0; i < rows; i++ {
			all = append(all, tailRow(i))
		}
		if bulk {
			tbl.AppendRows(all)
			return tbl
		}
		for _, r := range all {
			tbl.Append(r)
		}
		return tbl
	}
	tables := map[string]*Table{}
	for _, threshold := range []int{-1, 100, 1000, 1024, 1500, 4096} {
		tables[fmt.Sprintf("threshold %d", threshold)] = build(threshold, false)
		tables[fmt.Sprintf("threshold %d, one run", threshold)] = build(threshold, true)
	}

	aged := NewTable("t", tailSchema(t))
	for i := 0; i < rows; i++ {
		if i == 300 {
			aged.NoteDead(290) // four versions per live row: the tail seals early
		}
		aged.Append(tailRow(i))
	}
	if aged.NumSegments() == 0 || aged.Snap().Segments[0].Len() != 301 {
		t.Fatal("the aged tail was not sealed early")
	}
	tables["aged tail"] = aged

	var file bytes.Buffer
	schema := tailSchema(t)
	var spilled []*Row
	for i := 0; i < 4500; i++ {
		spilled = append(spilled, tailRow(i))
	}
	if err := WriteSegmentFile(&file, schema, CompactSegments(spilled, schema, 0)); err != nil {
		t.Fatal(err)
	}
	restored := NewTable("t", tailSchema(t))
	restored.SetSpill(func() ([]*Segment, []*Row, error) {
		segs, err := ReadSegmentFile(bytes.NewReader(file.Bytes()), int64(file.Len()), schema)
		return segs, nil, err
	}, nil)
	for i := 4500; i < 4500+2600; i++ {
		restored.Append(tailRow(i)) // replayed before the first read
	}
	tables["restored"] = restored

	temp := NewTable("t", tailSchema(t))
	temp.SetSealThreshold(-1)
	temp.SetSpill(func() ([]*Segment, []*Row, error) {
		var loaded []*Row
		for i := 0; i < 2500; i++ {
			loaded = append(loaded, tailRow(i))
		}
		return nil, loaded, nil
	}, nil)
	tables["temp table"] = temp

	for name, tbl := range tables {
		t.Run(name, func(t *testing.T) { checkUnits(t, tbl.Snap()) })
	}

	t.Run("snapshot before a demotion", func(t *testing.T) {
		tbl := NewTable("t", tailSchema(t))
		for i := 0; i < 7; i++ {
			tbl.Append(tailRow(i))
		}
		before := tbl.Snap()
		tbl.Append(tailRow(7)) // TEXT in mixed
		after := tbl.Snap()
		if !before.wins[0].Cols[5].Pure || after.wins[0].Cols[5].Pure || before.wins[0] == after.wins[0] {
			t.Fatal("the demotion did not replace the window")
		}
		checkUnits(t, before)
		checkUnits(t, after)
	})
}

// checkUnits holds a snapshot's units to its rows.
func checkUnits(t *testing.T, snap *HeapSnap) {
	t.Helper()
	schema := tailSchema(t)
	units := makeUnits(snap)
	covered := 0
	for ui, u := range units {
		var cols []ColVec
		switch {
		case u.Seg != nil && u.Seg.Zones != nil:
			cols = u.Seg.Cols
			if ui >= len(snap.Segments) {
				t.Fatalf("unit %d: a segment after the tail windows", ui)
			}
			fromRows := sealRows(u.Seg.Rows, schema)
			if !reflect.DeepEqual(u.Seg.Cols, fromRows.Cols) || !reflect.DeepEqual(u.Seg.Zones, fromRows.Zones) {
				t.Fatalf("segment %d differs from the segment sealed from its rows", ui)
			}
			for ci := range cols {
				if want := refZone(u.Seg.Rows, ci); !reflect.DeepEqual(zoneBounds(u.Seg.Zones[ci]), want) {
					t.Fatalf("segment %d column %d: zone %+v, value by value %+v", ui, ci, zoneBounds(u.Seg.Zones[ci]), want)
				}
			}
		case u.Seg != nil && u.Seg.Zones == nil:
			cols = u.Seg.Cols
			if len(u.Rows) > WindowSize || len(u.Rows) < WindowSize && ui != len(units)-1 {
				t.Fatalf("unit %d: a window of %d rows", ui, len(u.Rows))
			}
		default:
			t.Fatalf("unit %d is neither a segment nor a window", ui)
		}
		for i, r := range u.Rows {
			if r != snap.Rows[covered+i] {
				t.Fatalf("unit %d row %d is not the heap's", ui, i)
			}
			for ci, want := range r.Values {
				got := cols[ci].Value(i)
				if got.Kind() != want.Kind() || !types.Equal(got, want) {
					t.Fatalf("unit %d row %d column %d: vector %v, row %v", ui, i, ci, got, want)
				}
			}
		}
		covered += len(u.Rows)
	}
	if covered != snap.Len() {
		t.Fatalf("units cover %d of %d rows", covered, snap.Len())
	}
}

// zoneBounds is the part of a zone map refZone computes.
func zoneBounds(z ZoneMap) ZoneMap {
	return ZoneMap{Min: z.Min, Max: z.Max, NullCount: z.NullCount, Ordered: z.Ordered}
}

// refZone computes a column's bounds and null count over rows value by
// value: unordered from the first pair of values types.Compare cannot order.
func refZone(rows []*Row, ci int) ZoneMap {
	z := ZoneMap{Ordered: true}
	for _, r := range rows {
		v := r.Values[ci]
		switch {
		case v.IsNull():
			z.NullCount++
			continue
		case !z.Ordered:
			continue
		case z.Min.IsNull():
			z.Min, z.Max = v, v
			continue
		}
		lo, err1 := types.Compare(v, z.Min)
		hi, err2 := types.Compare(v, z.Max)
		if err1 != nil || err2 != nil {
			z.Ordered, z.Min, z.Max = false, types.Null, types.Null
			continue
		}
		if lo < 0 {
			z.Min = v
		}
		if hi > 0 {
			z.Max = v
		}
	}
	return z
}
