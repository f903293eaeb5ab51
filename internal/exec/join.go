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
	hint   int // how many ids will be filed: the map's initial size
	str    map[string]int32
	enc    map[string]int32
	next   []int32
	vals   []types.Value // probe's boxed key
}

// newKeyIndex makes an index for nKeys-column keys over ids 0..n-1, of
// which about hint will be filed: a build that views a whole segment or
// window files only its selected positions.
func newKeyIndex(nKeys, n, hint int) *keyIndex {
	return &keyIndex{single: nKeys == 1, hint: hint, next: make([]int32, n)}
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
			x.str = make(map[string]int32, x.hint)
		}
		x.next[id], x.str[vals[0].Str()] = -1, id
	default:
		if x.enc == nil {
			x.enc = make(map[string]int32, x.hint)
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

// BatchNestedLoopJoin pairs every tuple of Outer with every tuple of Inner:
// the join of relations no equality connects, a cross product with Kernel,
// or the filters above it, deciding which pairs survive. The inner side is
// collected into one batch; an outer batch is paired with it a few outer
// tuples at a time, so that an output batch holds about BatchSize pairs, and
// the columns in Need are gathered into it as BatchHashJoin gathers them.
type BatchNestedLoopJoin struct {
	Outer, Inner BatchOperator
	Kernel       Kernel // the join predicate over the pairs; may be nil
	// Need lists the tuple offsets the plan reads above the join; nil
	// carries every column of both sides.
	Need []int

	inner *Batch // the collected inner side; nil when it is empty
	cur   *Batch // the outer batch being paired
	at    int    // where in cur's selection pairing resumes
	pos   []int  // per output tuple: outer position
	hit   []int  // per output tuple: inner position
	every []int  // Need == nil: every tuple offset
}

// Open opens the outer side and collects the inner one; when that fails the
// outer side is closed again.
func (j *BatchNestedLoopJoin) Open() error {
	if err := j.Outer.Open(); err != nil {
		return err
	}
	inner, err := DrainBatch(j.Inner)
	if err != nil {
		j.Outer.Close()
		return err
	}
	j.inner, j.cur, j.at = inner, nil, 0
	return nil
}

// NextBatch emits the next batch of pairs the kernel keeps.
func (j *BatchNestedLoopJoin) NextBatch() (*Batch, error) {
	for j.inner != nil {
		if j.cur == nil {
			b, err := j.Outer.NextBatch()
			if err != nil || b == nil {
				return nil, err
			}
			j.cur, j.at = b, 0
		}
		j.pos, j.hit = j.pos[:0], j.hit[:0]
		for ; j.at < j.cur.Len() && len(j.pos) < BatchSize; j.at++ {
			for _, q := range j.inner.Sel {
				j.pos = append(j.pos, j.cur.Sel[j.at])
				j.hit = append(j.hit, q)
			}
		}
		out := joined(len(j.pos), needOf(j.Need, &j.every, len(j.cur.Cols)), j.cur, j.pos, j.inner, j.hit)
		if j.at == j.cur.Len() {
			PutBatch(j.cur)
			j.cur = nil
		}
		if j.Kernel != nil {
			if err := j.Kernel(out); err != nil {
				PutBatch(out)
				return nil, err
			}
		}
		if out.Len() > 0 {
			return out, nil
		}
		PutBatch(out)
	}
	return nil, nil
}

// Close releases both sides.
func (j *BatchNestedLoopJoin) Close() error {
	PutBatch(j.inner)
	PutBatch(j.cur)
	j.inner, j.cur = nil, nil
	j.pos, j.hit = recycled(j.pos, keptScratch), recycled(j.hit, keptScratch)
	return j.Outer.Close()
}
