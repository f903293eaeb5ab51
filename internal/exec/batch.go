package exec

import (
	"slices"
	"sync"

	"trac/internal/storage"
	"trac/internal/types"
)

// BatchSize is the target row count of a batch built row by row (tail
// windows of the serial scan, index matches, a nested-loop join's pairs). It is large enough to
// amortize per-batch overhead (interface calls, channel sends, kernel
// dispatch) over ~1k rows. A batch that views a sealed segment holds the
// whole segment, whatever its length.
const BatchSize = 1024

// Batch is a window of tuples in columnar form: one typed vector per tuple
// offset of the plan's layout, plus a selection vector. Operators
// communicate batch-at-a-time by handing over *Batch values; a filter
// narrows Sel in place, a projection rearranges Cols in place, a sort
// permutes Sel, a join emits a fresh batch.
//
// Cols[c] is nil for a column nothing above the producer reads (the
// planner's required-column pass decides). The live tuples are the vector
// positions Sel names, in Sel's order; positions Sel does not name are dead
// but still occupy their slot. Sel need not ascend — a sort permutes it — so
// whatever reads or narrows it keeps its order: a kernel narrowing in place,
// a probe, DISTINCT keeping the first occurrence of each tuple, collecting
// batches into one and minting tuples.
//
// Vectors are either viewed or owned. A scan of a sealed segment points
// Cols at the segment's own vectors (immutable, shared with every other
// reader — never written through a batch); a tail window, a join's output,
// a computed projection and an aggregate's groups fill vectors the batch owns
// (NewVec), which go back to the pool with it. Either way a consumer must
// not touch a vector it took from Cols after PutBatch.
//
// []types.Value tuples exist only at the edges: AppendRows mints them for a
// result's rows (Drain), and RowAt boxes one position into scratch for a
// compiled Evaluator.
type Batch struct {
	Cols []*storage.ColVec
	Sel  []int

	n       int               // vector length: Sel names positions below n
	own     []*storage.ColVec // vectors this batch owns; own[:used] are in use
	used    int
	scratch []types.Value // RowAt's tuple

	// Scratch of a kernel or key probe over a coded vector (keepByCode,
	// keyIndex.probe), sized to its dictionary and kept while the batch is
	// pooled: the dictionary viewed as a vector, a selection over it, and per
	// code the conjunct's outcome (1 kept, 0 dropped) or the key's chain head.
	dict  storage.ColVec
	codes []int
	mask  []uint8
	heads []int32
}

// Len returns the number of selected tuples.
func (b *Batch) Len() int { return len(b.Sel) }

// Shape empties the batch and gives it width columns (all absent) over
// vectors of n positions.
func (b *Batch) Shape(width, n int) {
	b.release()
	b.Cols = slices.Grow(b.Cols[:0], width)[:width]
	b.n = n
}

// SelectAll selects positions 0..n-1.
func (b *Batch) SelectAll() {
	b.Sel = slices.Grow(b.Sel[:0], b.n)[:b.n]
	for i := range b.Sel {
		b.Sel[i] = i
	}
}

// NewVec returns an empty vector of the declared kind that the batch owns.
func (b *Batch) NewVec(kind types.Kind) *storage.ColVec {
	if b.used == len(b.own) {
		b.own = append(b.own, new(storage.ColVec))
	}
	c := b.own[b.used]
	b.used++
	c.Kind, c.Pure = kind, kind != types.KindNull
	return c
}

// release drops every reference the batch holds — viewed vectors, the
// strings and boxed values of owned ones — so a pooled batch pins neither a
// heap snapshot nor a result.
func (b *Batch) release() {
	// A projection may have shortened Cols; the slots beyond still point.
	clear(b.Cols[:cap(b.Cols)])
	b.Cols, b.Sel, b.n = b.Cols[:0], b.Sel[:0], 0
	for _, c := range b.own[:b.used] {
		clear(c.Str)
		clear(c.Vals)
		c.Nulls, c.I64, c.F64, c.Str, c.Vals = c.Nulls[:0], c.I64[:0], c.F64[:0], c.Str[:0], c.Vals[:0]
	}
	b.used = 0
	clear(b.scratch)
}

// RowAt boxes vector position pos into the batch's scratch tuple, absent
// columns NULL. The tuple is overwritten by the next call.
func (b *Batch) RowAt(pos int) []types.Value {
	if cap(b.scratch) < len(b.Cols) {
		b.scratch = make([]types.Value, len(b.Cols))
	}
	row := b.scratch[:len(b.Cols)]
	for c, cv := range b.Cols {
		if cv != nil {
			row[c] = cv.Value(pos)
		}
	}
	return row
}

// AppendRows mints one tuple per selected position (absent columns NULL)
// and appends them to dst. The tuples are carved from one allocation that
// belongs to the caller; they stay valid after the batch is recycled.
func (b *Batch) AppendRows(dst [][]types.Value) [][]types.Value {
	w, n := len(b.Cols), len(b.Sel)
	if n == 0 {
		return dst
	}
	arena := make([]types.Value, n*w)
	for c, cv := range b.Cols {
		if cv != nil {
			boxColumn(arena[c:], w, cv, b.Sel)
		}
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, arena[i*w:(i+1)*w:(i+1)*w])
	}
	return dst
}

// boxColumn writes the boxed value of each selected position to
// dst[0], dst[stride], dst[2*stride]… NULLs are left as the zero Value.
func boxColumn(dst []types.Value, stride int, cv *storage.ColVec, sel []int) {
	if !cv.Pure {
		for i, p := range sel {
			dst[i*stride] = cv.Vals[p]
		}
		return
	}
	for i, p := range sel {
		if !cv.Nulls[p] {
			dst[i*stride] = pureValue(cv, p)
		}
	}
}

// pureValue boxes a non-NULL slot of a pure vector.
func pureValue(cv *storage.ColVec, p int) types.Value {
	switch cv.Kind {
	case types.KindInt:
		return types.NewInt(cv.I64[p])
	case types.KindTime:
		return types.NewTimeNanos(cv.I64[p])
	case types.KindBool:
		return types.NewBool(cv.I64[p] != 0)
	case types.KindFloat:
		return types.NewFloat(cv.F64[p])
	default:
		return types.NewString(cv.Str[p])
	}
}

// vecResize gives an empty owned vector n slots, every one NULL, to be
// filled by vecSet.
func vecResize(c *storage.ColVec, n int) {
	if !c.Pure {
		c.Vals = slices.Grow(c.Vals, n)[:n]
		return
	}
	c.Nulls = slices.Grow(c.Nulls, n)[:n]
	for i := range c.Nulls {
		c.Nulls[i] = true
	}
	switch c.Kind {
	case types.KindFloat:
		c.F64 = slices.Grow(c.F64, n)[:n]
	case types.KindString:
		c.Str = slices.Grow(c.Str, n)[:n]
	default:
		c.I64 = slices.Grow(c.I64, n)[:n]
	}
}

// vecSet stores one boxed value in slot k of a vector sized by vecResize. A
// non-NULL value of another kind than the vector's demotes it to the generic
// form, as sealing does for a segment column (storage.ColVec).
func vecSet(c *storage.ColVec, k int, v types.Value) {
	if v.IsNull() {
		return
	}
	if c.Pure && v.Kind() != c.Kind {
		n := len(c.Nulls)
		demote(c)
		c.Vals = c.Vals[:n]
	}
	if !c.Pure {
		c.Vals[k] = v
		return
	}
	c.Nulls[k] = false
	switch c.Kind {
	case types.KindInt:
		c.I64[k] = v.Int()
	case types.KindTime:
		c.I64[k] = v.TimeNanos()
	case types.KindBool:
		c.I64[k] = 0
		if v.Bool() {
			c.I64[k] = 1
		}
	case types.KindFloat:
		c.F64[k] = v.Float()
	default:
		c.Str[k] = v.Str()
	}
}

// demote turns a pure owned vector into the generic form.
func demote(c *storage.ColVec) {
	vals := c.Vals[:0]
	for i := range c.Nulls {
		vals = append(vals, c.Value(i))
	}
	clear(c.Str)
	c.Pure, c.Vals = false, vals
	c.Nulls, c.I64, c.F64, c.Str = c.Nulls[:0], c.I64[:0], c.F64[:0], c.Str[:0]
}

// vecGather appends src's values at the given positions to the owned
// vector dst, typed slice to typed slice when both are pure of one kind.
func vecGather(dst, src *storage.ColVec, pos []int) {
	if dst.Pure && (!src.Pure || src.Kind != dst.Kind) {
		demote(dst)
	}
	if !dst.Pure {
		dst.Vals = slices.Grow(dst.Vals, len(pos))
		for _, p := range pos {
			dst.Vals = append(dst.Vals, src.Value(p))
		}
		return
	}
	dst.Nulls = slices.Grow(dst.Nulls, len(pos))
	for _, p := range pos {
		dst.Nulls = append(dst.Nulls, src.Nulls[p])
	}
	switch dst.Kind {
	case types.KindFloat:
		dst.F64 = slices.Grow(dst.F64, len(pos))
		for _, p := range pos {
			dst.F64 = append(dst.F64, src.F64[p])
		}
	case types.KindString:
		dst.Str = slices.Grow(dst.Str, len(pos))
		for _, p := range pos {
			dst.Str = append(dst.Str, src.Str[p])
		}
	default:
		dst.I64 = slices.Grow(dst.I64, len(pos))
		for _, p := range pos {
			dst.I64 = append(dst.I64, src.I64[p])
		}
	}
}

// batchPool recycles batches across operators and pipelines. Ownership
// discipline: NextBatch transfers ownership of the returned batch to the
// caller; whoever consumes a batch without forwarding it calls PutBatch.
var batchPool = sync.Pool{
	New: func() any { return &Batch{Sel: make([]int, 0, BatchSize)} },
}

// GetBatch returns an empty batch from the pool.
func GetBatch() *Batch { return batchPool.Get().(*Batch) }

// PutBatch recycles a batch: its header, its selection vector and the
// vectors it owns. Viewed segment vectors are merely forgotten. The caller
// must not touch the batch, its Sel or anything taken from its Cols
// afterwards; tuples minted by AppendRows remain valid.
func PutBatch(b *Batch) {
	if b == nil {
		return
	}
	b.release()
	batchPool.Put(b)
}

// BatchOperator is the one physical operator interface. The contract is
// Open, then NextBatch until it returns a nil batch, then Close. Every
// returned batch has Len() > 0; ownership transfers to the caller (recycle
// with PutBatch or forward it). An operator may be opened again after Close
// (a plan template's tree is) and carries nothing over from the last run.
type BatchOperator interface {
	Open() error
	NextBatch() (*Batch, error)
	Close() error
}
