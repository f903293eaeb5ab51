package storage

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"trac/internal/types"
)

// fuzzRows draws up to 64 rows of schema from rng: NULLs now and then, a
// few or many sources, and in a column rng picks, values of another kind
// than the declared one, so the column is sealed generic.
func fuzzRows(rng *rand.Rand, schema *Schema) []*Row {
	n := rng.IntN(65)
	generic := rng.IntN(len(schema.Columns) + 1) // == len: every column pure
	sources := 1 + rng.IntN(2*MaxZoneSources)
	rows := make([]*Row, n)
	for i := range rows {
		vals := make([]types.Value, len(schema.Columns))
		for ci, col := range schema.Columns {
			kind := col.Kind
			if ci == generic && rng.IntN(4) == 0 {
				kind = types.Kind(1 + rng.IntN(5)) // any non-NULL kind
			}
			switch {
			case rng.IntN(8) == 0:
				vals[ci] = types.Null
			case kind == types.KindInt:
				vals[ci] = types.NewInt(rng.Int64() >> rng.IntN(64))
			case kind == types.KindString && ci == schema.SourceColumn:
				vals[ci] = types.NewString(fmt.Sprintf("m%d", rng.IntN(sources)))
			case kind == types.KindString:
				vals[ci] = types.NewString(string(make([]byte, rng.IntN(5))))
			case kind == types.KindFloat:
				vals[ci] = types.NewFloat(rng.NormFloat64())
			case kind == types.KindTime:
				vals[ci] = types.NewTimeNanos(rng.Int64())
			default:
				vals[ci] = types.NewBool(rng.IntN(2) == 0)
			}
		}
		rows[i] = NewRow(vals, 1)
	}
	return rows
}

// byteSource is a rand.Source that reads its numbers off data, eight bytes
// at a time, and then goes on from a fixed seed (a source of zeros would
// stall rand's rejection loops): a shorter input draws fewer rows, which
// lets the fuzzer minimize what it finds.
type byteSource struct {
	data []byte
	rest *rand.PCG
}

func (s *byteSource) Uint64() (v uint64) {
	if len(s.data) == 0 {
		return s.rest.Uint64()
	}
	for i := 0; i < 8 && len(s.data) > 0; i++ {
		v = v<<8 | uint64(s.data[0])
		s.data = s.data[1:]
	}
	return v
}

// FuzzReadSegmentFile: ReadSegmentFile neither panics on arbitrary bytes nor
// allocates more than a bounded multiple of their length — every count and
// length it reads is held to the bytes that can hold it — and a file written
// from columns drawn from the input, pure and generic, decodes to segments
// equal to the sealed ones: vectors, zone maps, source sets and row values.
func FuzzReadSegmentFile(f *testing.F) {
	schema := tailSchema(f)
	for _, seed := range [][]byte{nil, []byte("TRACSEG2"), {1, 2, 3}} {
		f.Add(seed)
	}
	for seed := uint64(0); seed < 4; seed++ {
		// Small files: the fuzzer minimizes every input it finds
		// interesting, and most of them grow from a seed.
		var file bytes.Buffer
		rows := fuzzRows(rand.New(rand.NewPCG(seed, seed)), schema)
		if err := WriteSegmentFile(&file, schema, CompactSegments(rows[:min(len(rows), 5)], schema, 2)); err != nil {
			f.Fatal(err)
		}
		f.Add(file.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		segs, err := ReadSegmentFile(bytes.NewReader(data), int64(len(data)), schema)
		runtime.ReadMemStats(&after)
		// A decoded row costs a few hundred bytes — its Row, its values, its
		// vector slots — and takes at least one byte of the file per column.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+512*len(data)); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), grew, bound)
		}
		if err == nil {
			for _, seg := range segs {
				seg.Sources(schema.SourceColumn, seg.Rows)
			}
		}

		rng := rand.New(&byteSource{data, rand.NewPCG(1, 2)})
		rows := fuzzRows(rng, schema)
		sealed := CompactSegments(rows, schema, 1+rng.IntN(32))
		var file bytes.Buffer
		if err := WriteSegmentFile(&file, schema, sealed); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSegmentFile(bytes.NewReader(file.Bytes()), int64(file.Len()), schema)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(sealed) {
			t.Fatalf("read %d segments, wrote %d", len(got), len(sealed))
		}
		at := 0
		for si, seg := range got {
			want := sealed[si]
			if !reflect.DeepEqual(seg.Cols, want.Cols) || !reflect.DeepEqual(seg.Zones, want.Zones) {
				t.Fatalf("segment %d: decoded vectors or zone maps differ from the sealed ones", si)
			}
			if g, w := seg.Sources(schema.SourceColumn, seg.Rows), want.Sources(schema.SourceColumn, want.Rows); !reflect.DeepEqual(g, w) {
				t.Fatalf("segment %d: sources %v, sealed %v", si, g, w)
			}
			for i, r := range seg.Rows {
				if !reflect.DeepEqual(r.Values, rows[at+i].Values) {
					t.Fatalf("segment %d row %d: %v, wrote %v", si, i, r.Values, rows[at+i].Values)
				}
			}
			at += seg.Len()
		}
		if at != len(rows) {
			t.Fatalf("decoded %d rows, wrote %d", at, len(rows))
		}
	})
}
