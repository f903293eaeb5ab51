package storage

import (
	"slices"

	"trac/internal/types"
)

// WindowSize is the row count of a tail window. A table's unsealed tail is a
// list of windows aligned from the end of the sealed prefix: window k holds
// the tail rows k*WindowSize up to (k+1)*WindowSize, and only the last one
// can be partial.
const WindowSize = 1024

// newWindow makes a tail window over cols, WindowSize slots per column of
// the schema: a Segment laid out as a sealed one's (see ColVec) but with no
// rows, zone maps or codes yet. The vectors are allocated at full length and
// AppendRows fills slot after slot under the table's lock, so a snapshot
// that saw n rows of a window reads the vectors' first n slots while later
// appends write past them: neither a slot it reads nor a vector header ever
// changes under it. A value whose kind does not fit a pure vector makes the
// table replace the window by a copy with that column demoted to the
// generic form, and snapshots taken before keep the old one. Once full, a
// window never changes again, and caches what it says about its rows as a
// sealed segment does.
func newWindow(schema *Schema, cols []ColVec) *Segment {
	return &Segment{Cols: cols, n: WindowSize, src: schema.SourceColumn}
}

// makeCols allocates one full-length vector of n slots per schema column,
// typed by the column's declared kind.
func makeCols(schema *Schema, n int) []ColVec {
	cols := make([]ColVec, len(schema.Columns))
	for ci := range cols {
		makeVec(&cols[ci], schema.Columns[ci].Kind, n, true)
	}
	return cols
}

// makeVec gives c n slots of the declared kind: typed payload slices when
// pure (and the kind has one), generic values otherwise. NULL slots are
// marked in Nulls either way.
func makeVec(c *ColVec, kind types.Kind, n int, pure bool) {
	*c = ColVec{Kind: kind, Pure: pure, Nulls: make([]bool, n)}
	switch {
	case !pure:
	case kind == types.KindInt || kind == types.KindTime || kind == types.KindBool:
		c.I64 = make([]int64, n)
		return
	case kind == types.KindFloat:
		c.F64 = make([]float64, n)
		return
	case kind == types.KindString:
		c.Str = make([]string, n)
		return
	}
	c.Pure, c.Vals = false, make([]types.Value, n)
}

// put stores v in slot k of a vector made by makeVec, whose slot k has not
// been written. It stores nothing and reports false when v is a non-NULL
// value of another kind than a pure vector's.
func (c *ColVec) put(k int, v types.Value) bool {
	if v.IsNull() {
		c.Nulls[k] = true
		return true
	}
	if !c.Pure {
		c.Vals[k] = v
		return true
	}
	if v.Kind() != c.Kind {
		return false
	}
	switch c.Kind {
	case types.KindInt:
		c.I64[k] = v.Int()
	case types.KindTime:
		c.I64[k] = v.TimeNanos()
	case types.KindBool:
		if v.Bool() {
			c.I64[k] = 1
		}
	case types.KindFloat:
		c.F64[k] = v.Float()
	default:
		c.Str[k] = v.Str()
	}
	return true
}

// generic returns the generic form of c, a vector of which the first n
// slots are written: the same length, those slots boxed. It shares c's
// Nulls, whose slots past n neither vector has written.
func (c *ColVec) generic(n int) ColVec {
	vals := make([]types.Value, len(c.Nulls))
	for i := 0; i < n; i++ {
		vals[i] = c.Value(i)
	}
	return ColVec{Kind: c.Kind, Nulls: c.Nulls, Vals: vals}
}

// fillLocked writes rows, the tail rows from tail position at on, into the
// windows, adding a window whenever the last one is full. The caller holds
// t.mu for writing.
func (t *Table) fillLocked(at int, rows []*Row) {
	for _, r := range rows {
		k, slot := at/WindowSize, at%WindowSize
		if k == len(t.wins) {
			t.wins = append(t.wins, newWindow(t.Schema, makeCols(t.Schema, WindowSize)))
		}
		w := t.wins[k]
		for ci, v := range r.Values {
			if !w.Cols[ci].put(slot, v) {
				w = t.demoteLocked(k, ci, slot)
				w.Cols[ci].put(slot, v)
			}
		}
		at++
	}
}

// demoteLocked replaces window k, of which slot and the slots past it are
// not written yet, by a copy whose column ci is generic, and returns the
// copy. Snapshots share the window list, so the list is copied too. The
// caller holds t.mu for writing.
func (t *Table) demoteLocked(k, ci, slot int) *Segment {
	old := t.wins[k]
	w := newWindow(t.Schema, slices.Clone(old.Cols))
	w.Cols[ci] = old.Cols[ci].generic(slot)
	t.wins = slices.Clone(t.wins)
	t.wins[k] = w
	return w
}

// trimWindowsLocked realigns the windows with the end of the sealed prefix
// after sealing moved it from from: the windows it covered whole are
// dropped, and when it ends inside a window — a threshold that is not a
// multiple of WindowSize — the windows of the rest of the tail are built
// again. The caller holds t.mu for writing.
func (t *Table) trimWindowsLocked(from int) {
	switch k := t.sealed - from; {
	case k == 0:
	case t.sealed == len(t.rows):
		t.wins = nil
	case k%WindowSize == 0:
		t.wins = slices.Clone(t.wins[k/WindowSize:])
	default:
		t.wins = nil
		t.fillLocked(0, t.rows[t.sealed:])
	}
}

// sealWindows builds the segment of rows, the tail rows from tail position
// from on, by copying their slots out of the windows that hold them. A
// column is pure unless one of its values in the region does not fit its
// kind, as if sealed from the rows' values: a region of a demoted window
// can hold none of the values that demoted it.
func sealWindows(rows []*Row, wins []*Segment, from int, schema *Schema) *Segment {
	n := len(rows)
	cols := make([]ColVec, len(schema.Columns))
	for ci := range cols {
		pure := true
		for at := 0; at < n && pure; {
			lo := (from + at) % WindowSize
			hi := min(WindowSize, lo+n-at)
			pure = fits(&wins[(from+at)/WindowSize].Cols[ci], lo, hi)
			at += hi - lo
		}
		dst := &cols[ci]
		makeVec(dst, schema.Columns[ci].Kind, n, pure)
		for at := 0; at < n; {
			lo := (from + at) % WindowSize
			hi := min(WindowSize, lo+n-at)
			copySlots(dst, at, &wins[(from+at)/WindowSize].Cols[ci], lo, hi)
			at += hi - lo
		}
	}
	return newSegment(rows, cols, schema)
}

// fits reports whether every non-NULL value in slots lo..hi-1 of c has c's
// kind.
func fits(c *ColVec, lo, hi int) bool {
	if c.Pure {
		return true
	}
	for _, v := range c.Vals[lo:hi] {
		if !v.IsNull() && v.Kind() != c.Kind {
			return false
		}
	}
	return true
}

// copySlots copies src's slots lo..hi-1 into dst, a vector made by makeVec,
// from slot at on: typed slice to typed slice when both are pure, value by
// value otherwise.
func copySlots(dst *ColVec, at int, src *ColVec, lo, hi int) {
	if !dst.Pure || !src.Pure {
		for i := lo; i < hi; i++ {
			dst.put(at+i-lo, src.Value(i))
		}
		return
	}
	copy(dst.Nulls[at:], src.Nulls[lo:hi])
	switch {
	case dst.I64 != nil:
		copy(dst.I64[at:], src.I64[lo:hi])
	case dst.F64 != nil:
		copy(dst.F64[at:], src.F64[lo:hi])
	default:
		copy(dst.Str[at:], src.Str[lo:hi])
	}
}
