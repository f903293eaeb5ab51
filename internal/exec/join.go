package exec

import (
	"slices"

	"trac/internal/types"
)

// keyIndex maps equality keys to chains of int32 ids — build tuples for the
// hash join, anchor candidates for a SemiJoin probe. A key's chain starts
// at its map entry and follows next. A lone TEXT key, the common case, is
// filed under its payload itself, so a probe reads it straight off a string
// vector; every other key (composite, or a value of another kind) under its
// AppendKey encoding, which keeps the cross-kind equalities of types.Compare
// (3 = 3.0). NULL keys are never filed and never match.
type keyIndex struct {
	single bool
	str    map[string]int32
	enc    map[string]int32
	next   []int32
	vals   []types.Value // probe's boxed key
}

// newKeyIndex makes an index for nKeys-column keys over ids 0..n-1.
func newKeyIndex(nKeys, n int) *keyIndex {
	return &keyIndex{single: nKeys == 1, next: make([]int32, n)}
}

// text reports whether a (non-NULL) key is filed under its TEXT payload.
func (x *keyIndex) text(vals []types.Value) bool {
	return x.single && vals[0].Kind() == types.KindString
}

// find returns the head of the key's chain, or -1. A key that is not filed
// as text is left encoded in buf.
func (x *keyIndex) find(vals []types.Value, buf *[]byte) int32 {
	var h int32
	var ok bool
	if x.text(vals) {
		h, ok = x.str[vals[0].Str()]
	} else {
		*buf = AppendKey((*buf)[:0], vals...)
		h, ok = x.enc[string(*buf)]
	}
	if !ok {
		return -1
	}
	return h
}

// head returns the head of a lone TEXT key's chain, or -1.
func (x *keyIndex) head(s string) int32 {
	if h, ok := x.str[s]; ok {
		return h
	}
	return -1
}

// unknownHead marks a code whose chain head probe has not looked up yet.
const unknownHead = -2

// add files id under the key, behind the chain's head so the map is written
// once per distinct key.
func (x *keyIndex) add(id int32, vals []types.Value, buf *[]byte) {
	switch h := x.find(vals, buf); {
	case h >= 0:
		x.next[id], x.next[h] = x.next[h], id
	case x.text(vals):
		if x.str == nil {
			x.str = make(map[string]int32, len(x.next))
		}
		x.next[id], x.str[vals[0].Str()] = -1, id
	default:
		if x.enc == nil {
			x.enc = make(map[string]int32, len(x.next))
		}
		x.next[id], x.enc[string(*buf)] = -1, id
	}
}

// probe looks up the key of every selected position of b — read off the
// vectors at cols where a key is a bare column, computed by evals over the
// boxed tuple otherwise — and calls hit with the chain head of each position
// whose key is filed. hit returns false to stop early. probe reports how
// many positions it examined.
//
// A lone TEXT key read off a coded vector whose dictionary is shorter than
// the selection is looked up once per code, the first time a position
// carries it; the heads found are the batch's scratch.
func (x *keyIndex) probe(b *Batch, cols []int, evals []Evaluator, buf *[]byte, hit func(pos int, head int32) (bool, error)) (int, error) {
	if x.single && cols != nil && cols[0] >= 0 {
		if cv := b.Cols[cols[0]]; cv.Pure && cv.Kind == types.KindString {
			coded := cv.Codes != nil && len(cv.Dict) < len(b.Sel)
			if coded {
				b.heads = slices.Grow(b.heads[:0], len(cv.Dict))[:len(cv.Dict)]
				for c := range b.heads {
					b.heads[c] = unknownHead
				}
			}
			for i, pos := range b.Sel {
				if cv.Nulls[pos] {
					continue
				}
				var h int32
				if coded {
					if h = b.heads[cv.Codes[pos]]; h == unknownHead {
						h = x.head(cv.Str[pos])
						b.heads[cv.Codes[pos]] = h
					}
				} else {
					h = x.head(cv.Str[pos])
				}
				if h >= 0 {
					if more, err := hit(pos, h); err != nil || !more {
						return i + 1, err
					}
				}
			}
			return len(b.Sel), nil
		}
	}
	if x.vals == nil {
		x.vals = make([]types.Value, len(evals))
	}
	vals := x.vals
	for i, pos := range b.Sel {
		null, err := b.keyValues(vals, cols, evals, pos)
		if err != nil {
			return i + 1, err
		}
		if null {
			continue
		}
		if h := x.find(vals, buf); h >= 0 {
			if more, err := hit(pos, h); err != nil || !more {
				return i + 1, err
			}
		}
	}
	return len(b.Sel), nil
}

// keyValues boxes the key of position pos into vals: column k comes from the
// vector at cols[k] when that is a bare column, from evals[k] over the boxed
// tuple otherwise. null reports a NULL key value.
func (b *Batch) keyValues(vals []types.Value, cols []int, evals []Evaluator, pos int) (null bool, err error) {
	var row []types.Value
	for k := range vals {
		if cols != nil && cols[k] >= 0 {
			vals[k] = b.Cols[cols[k]].Value(pos)
		} else {
			if row == nil {
				row = b.RowAt(pos)
			}
			if vals[k], err = evals[k](row); err != nil {
				return false, err
			}
		}
		null = null || vals[k].IsNull()
	}
	return null, nil
}

// mergeTuples overlays the non-NULL regions of two same-width padded tuples.
// Tuple regions are disjoint by construction (each base table owns a column
// range), so a plain position-wise overlay is correct.
func mergeTuples(a, b []types.Value) []types.Value {
	out := make([]types.Value, len(a))
	copy(out, a)
	for i, v := range b {
		if !v.IsNull() {
			out[i] = v
		}
	}
	return out
}

// NestedLoopJoin materializes the inner side and runs the (smaller) loop for
// every outer tuple, applying an arbitrary join predicate. It is the
// fallback for non-equijoin predicates and cross products.
type NestedLoopJoin struct {
	Outer, Inner Operator
	Pred         Evaluator // may be nil for a pure cross product

	inner    [][]types.Value
	outerRow []types.Value
	idx      int
	open     bool
}

// Open materializes the inner side.
func (j *NestedLoopJoin) Open() error {
	if err := j.Outer.Open(); err != nil {
		return err
	}
	rows, err := Drain(j.Inner)
	if err != nil {
		j.Outer.Close()
		return err
	}
	j.inner = rows
	j.outerRow = nil
	j.idx = 0
	j.open = true
	return nil
}

// Next emits the next qualifying pair.
func (j *NestedLoopJoin) Next() ([]types.Value, bool, error) {
	for {
		if j.outerRow == nil {
			row, ok, err := j.Outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.outerRow = row
			j.idx = 0
		}
		for j.idx < len(j.inner) {
			inner := j.inner[j.idx]
			j.idx++
			merged := mergeTuples(j.outerRow, inner)
			ok, err := EvalPredicate(j.Pred, merged)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return merged, true, nil
			}
		}
		j.outerRow = nil
	}
}

// Close releases both sides.
func (j *NestedLoopJoin) Close() error {
	j.inner, j.outerRow = nil, nil
	if !j.open {
		return nil
	}
	j.open = false
	return j.Outer.Close()
}
