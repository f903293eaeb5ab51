package exec

import (
	"cmp"
	"slices"
	"sync"

	"trac/internal/constraint"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// vecConjunct is one compiled conjunct of a scan or filter predicate: the
// loop that narrows a batch's selection vector, and — when the conjunct is
// a constraint on one column of the scanned table — the zone-map side that
// decides a sealed segment before it is read:
//
//   - prune: from the segment's per-column min/max, null-count and
//     distinct-source summaries, NO row can satisfy the conjunct, so the
//     whole segment is skipped without touching a single value;
//   - covers: the dual — EVERY row satisfies it.
//
// The narrowing loop is the same code whether the batch views a segment's
// vectors, holds a transposed run of index matches, or is a join's output.
type vecConjunct struct {
	narrow Kernel
	zone   *colConjunct // nil: no zone-map proofs
}

// selLoop narrows a selection vector over one pure column vector, in place.
type selLoop func(cv *storage.ColVec, sel []int) []int

// keepByCode narrows the selection to the non-NULL rows of the coded vector
// cv whose value loop keeps, running loop over cv's dictionary viewed as a
// vector of its own. The view, the selection over it and the per-code
// outcome are scratch the batch keeps. Deciding values no selected row
// holds changes nothing.
//
// The outcome is a mask, one 0/1 byte per code, and the selection is
// compacted without a branch on the data: every position is written to the
// next free slot, which advances by the row's mask byte ANDed with its
// non-NULL mark. The NULL mark is needed because a NULL slot carries code 0,
// which is also Dict[0].
func (b *Batch) keepByCode(cv *storage.ColVec, loop selLoop) {
	n := len(cv.Dict)
	d := &b.dict
	if cap(d.Nulls) < n {
		d.Nulls = make([]bool, n) // never set: dictionary entries are not NULL
	}
	d.Kind, d.Pure, d.Nulls, d.Str = types.KindString, true, d.Nulls[:n], cv.Dict
	b.codes = slices.Grow(b.codes[:0], n)[:n]
	for c := range b.codes {
		b.codes[c] = c
	}
	held := loop(d, b.codes)
	d.Str = nil
	mask := slices.Grow(b.mask[:0], n)[:n]
	clear(mask)
	for _, c := range held {
		mask[c] = 1
	}
	b.mask = mask
	sel, codes, nulls := b.Sel, cv.Codes, cv.Nulls
	k := 0
	for _, i := range sel {
		sel[k] = i
		k += int(mask[codes[i]] &^ b2u8(nulls[i]))
	}
	b.Sel = sel[:k]
}

// b2u8 is 1 for true and 0 for false; the compiler emits no branch for it.
func b2u8(x bool) uint8 {
	if x {
		return 1
	}
	return 0
}

// SegmentFilter holds the zone-map side of a pushed-down scan predicate:
// what a segment-aware scan can decide about a sealed storage.Segment
// before reading it. The rows of a segment that is neither pruned nor
// answered from statistics are filtered by the predicate's Kernel like any
// other batch.
//
// Pruning reorders the AND chain, which is legal for the same reason
// CompileKernel's early-out is (see its doc comment): both orders agree
// wherever no conjunct raises an error, and a zone-map proof reads only
// values of the column's kind, on which no conjunct the constraint package
// reads raises one. On error-free inputs the outputs are identical to
// evaluating the whole predicate row by row.
type SegmentFilter struct {
	conjs []vecConjunct
	// Fused counts conjuncts with a typed vector loop out of Total, for
	// explain notes.
	Fused, Total int
}

// CompileSegmentFilter compiles the zone-map proofs of a pushed-down scan
// predicate. base is the tuple offset where the scanned table's columns
// start (the scan's Offset) and tblCols its arity: only conjuncts over
// those columns have zone maps to consult. A nil expression yields a nil
// filter.
func CompileSegmentFilter(e sqlparser.Expr, layout *Layout, base, tblCols int) (*SegmentFilter, error) {
	conjs, fused, err := compileConjuncts(e, layout, base, tblCols)
	if err != nil || len(conjs) == 0 {
		return nil, err
	}
	return &SegmentFilter{conjs: conjs, Fused: fused, Total: len(conjs)}, nil
}

// Kernel is the predicate's batch kernel (see CompileKernel); a nil filter
// has none.
func (f *SegmentFilter) Kernel() Kernel {
	if f == nil {
		return nil
	}
	return chainKernels(f.conjs)
}

// compileConjuncts splits a predicate's top-level AND chain and compiles
// each conjunct: fused to a typed vector loop where the shape allows,
// otherwise the compiled Evaluator over boxed scratch tuples.
func compileConjuncts(e sqlparser.Expr, layout *Layout, base, tblCols int) (conjs []vecConjunct, fused int, err error) {
	if e == nil {
		return nil, 0, nil
	}
	for _, cj := range splitAndExpr(e) {
		if vc, ok := fuseConjunct(cj, layout, base, tblCols); ok {
			conjs = append(conjs, vc)
			fused++
			continue
		}
		ev, err := Compile(cj, layout)
		if err != nil {
			return nil, 0, err
		}
		conjs = append(conjs, vecConjunct{narrow: EvalKernel(ev)})
	}
	return conjs, fused, nil
}

// EvalKernel runs a compiled Evaluator as a batch kernel: the general
// fallback for a conjunct with no fused loop. Each selected position is
// boxed into the batch's scratch tuple.
func EvalKernel(ev Evaluator) Kernel {
	return func(b *Batch) error {
		out := b.Sel[:0]
		for _, pos := range b.Sel {
			keep, err := EvalPredicate(ev, b.RowAt(pos))
			if err != nil {
				b.Sel = out
				return err
			}
			if keep {
				out = append(out, pos)
			}
		}
		b.Sel = out
		return nil
	}
}

// Prune reports that no row of the segment can satisfy the predicate: some
// conjunct's zone-map check proves every row FALSE or UNKNOWN. A tail window
// has no zone maps and is never pruned.
func (f *SegmentFilter) Prune(seg *storage.Segment) bool {
	if seg.Zones == nil {
		return false
	}
	for _, c := range f.conjs {
		if c.zone != nil && c.zone.prune(seg) {
			return true
		}
	}
	return false
}

// Covers is the dual of Prune: it proves from the zone maps alone that every
// row version in the segment satisfies the whole predicate (every conjunct
// has a proof and it holds). Aggregation pushdown uses it to answer a
// segment from its zone-map stats without reading a row. A tail window, with
// no zone maps, is never covered.
func (f *SegmentFilter) Covers(seg *storage.Segment) bool {
	if seg.Zones == nil {
		return false
	}
	for _, c := range f.conjs {
		if c.zone == nil || !c.zone.covers(seg) {
			return false
		}
	}
	return true
}

// fuseConjunct returns the fused form of one conjunct: a column-vs-column
// comparison, or a conjunct the constraint package reads. Anything else
// (ok=false) goes through the compiled Evaluator, which keeps its (possibly
// error-raising) semantics byte-for-byte.
func fuseConjunct(e sqlparser.Expr, layout *Layout, base, tblCols int) (vecConjunct, bool) {
	if n, ok := e.(*sqlparser.Comparison); ok {
		lc, lok := n.Left.(*sqlparser.ColumnRef)
		rc, rok := n.Right.(*sqlparser.ColumnRef)
		if lok && rok {
			return fuseCmpColCol(layout, lc, rc, n.Op)
		}
	}
	off := 0
	set, ok := constraint.Read(e, func(cr *sqlparser.ColumnRef) (types.Kind, bool) {
		o, k, ok := colOffset(layout, cr)
		off = o
		return k, ok
	})
	if !ok {
		return vecConjunct{}, false
	}
	c := &colConjunct{set: set, off: off, expr: e, layout: layout}
	switch set.Kind {
	case types.KindFloat:
		c.floats = spansOf(set, types.Value.Float)
	case types.KindString:
		c.strs = spansOf(set, types.Value.Str)
		c.pts, c.isPts = pointsOf(set)
	default:
		c.ints = spansOf(set, payloadI64)
	}
	vc := vecConjunct{narrow: c.narrow}
	// Only a column of the scanned table has zone maps to consult; a kernel
	// (tblCols 0) never asks for them.
	if col := off - base; col >= 0 && col < tblCols {
		c.col, vc.zone = col, c
	}
	return vc, true
}

// colConjunct is a conjunct read as a constraint on the column at tuple
// offset off: a typed selection loop tests membership on a pure vector of
// the column's kind, over the constraint restated in the vector's payload
// type (I64 for BIGINT, TIMESTAMP and BOOLEAN, F64 for DOUBLE, Str for
// TEXT), and col, the column's position in the scanned table, locates the
// zone map the proofs read.
type colConjunct struct {
	set    constraint.Constraint
	off    int
	col    int
	ints   spans[int64]
	floats spans[float64]
	strs   spans[string]
	pts    strPoints // a TEXT point set or its complement, when isPts
	isPts  bool

	// The conjunct's compiled Evaluator, compiled on first use, runs over a
	// vector that is not pure: a column holding a value of another kind than
	// declared (possible only through the direct storage API), a computed
	// projection, an aggregate's groups.
	expr   sqlparser.Expr
	layout *Layout
	once   sync.Once
	slow   Kernel
	err    error
}

// narrow runs the selection loop over the batch. A constraint that drops
// NULL decides every other row by its value alone, so over a coded vector
// whose dictionary is shorter than the selection it runs once per distinct
// value, and the rows are then kept by code (Batch.keepByCode).
func (c *colConjunct) narrow(b *Batch) error {
	cv := b.Cols[c.off]
	switch {
	case !cv.Pure || cv.Kind != c.set.Kind:
		c.once.Do(func() {
			var ev Evaluator
			ev, c.err = Compile(c.expr, c.layout)
			c.slow = EvalKernel(ev)
		})
		if c.err != nil {
			return c.err
		}
		return c.slow(b)
	case !c.set.Null && cv.Codes != nil && len(cv.Dict) < len(b.Sel):
		b.keepByCode(cv, c.loop)
	default:
		b.Sel = c.loop(cv, b.Sel)
	}
	return nil
}

// loop is the selection loop over a pure vector of the column's kind.
func (c *colConjunct) loop(cv *storage.ColVec, sel []int) []int {
	switch c.set.Kind {
	case types.KindFloat:
		return c.floats.keep(c.set.Null, cv.F64, cv.Nulls, sel)
	case types.KindString:
		if c.isPts {
			return c.pts.keep(c.set.Null, cv.Str, cv.Nulls, sel)
		}
		out, k := c.strs.keep(c.set.Null, cv.Str, cv.Nulls, sel), 0
		if c.set.Like == "" {
			return out
		}
		for _, i := range out { // no NULL row: a residual's set drops NULL
			if c.like(cv.Str[i]) {
				out[k] = i
				k++
			}
		}
		return out[:k]
	}
	return c.ints.keep(c.set.Null, cv.I64, cv.Nulls, sel)
}

// keepsStr reports that the constraint, over a TEXT column, keeps s.
func (c *colConjunct) keepsStr(s string) bool {
	if c.isPts {
		return c.pts.has(s)
	}
	return c.strs.has(s) && (c.set.Like == "" || c.like(s))
}

// strPoints is a TEXT point set, or its complement when not is set (the
// IN, NOT IN, = and <> shapes), tested by one equality or one hash lookup:
// a search of the spans costs a string comparison a step.
type strPoints struct {
	one string
	set map[string]struct{}
	not bool
}

// pointsOf returns the point set a TEXT constraint is, or whose complement
// it is; ok is false for any other constraint.
func pointsOf(c constraint.Constraint) (p strPoints, ok bool) {
	if c.Like != "" {
		return p, false
	}
	if c.Range {
		c, p.not = c.Complement(), true
	}
	switch {
	case c.Range || len(c.Points) == 0:
		return p, false
	case len(c.Points) == 1:
		p.one = c.Points[0].Str()
		return p, true
	}
	p.set = make(map[string]struct{}, len(c.Points))
	for _, v := range c.Points {
		p.set[v.Str()] = struct{}{}
	}
	return p, true
}

func (p *strPoints) has(s string) bool {
	if p.set == nil {
		return (s == p.one) != p.not
	}
	_, ok := p.set[s]
	return ok != p.not
}

// keep narrows sel to the rows whose value the set keeps, and the NULL rows
// when null is set.
func (p *strPoints) keep(null bool, vals []string, nulls []bool, sel []int) []int {
	out := sel[:0]
	for _, i := range sel {
		if nulls[i] {
			if null {
				out = append(out, i)
			}
		} else if p.has(vals[i]) {
			out = append(out, i)
		}
	}
	return out
}

// like tests s against the constraint's LIKE residual.
func (c *colConjunct) like(s string) bool {
	return constraint.MatchLike(s, c.set.Like) != c.set.NotLike
}

// A segment's zone is the set of values its zone map admits: NULL when it
// counts one, and either its source set (the table's source column, when
// tracked) or [Min, Max]. The bounds count only when the zone is Ordered and
// the vector pure, so that they and every value between them have the
// column's kind; otherwise the zone proves nothing, as a value of another
// kind compares with the conjunct's literals otherwise than the constraint
// over the column's kind says. Pruning is then "constraint ∩ zone = ∅" and
// coverage "zone ⊆ constraint".

// prune reports that no row of the sealed segment satisfies the conjunct.
func (c *colConjunct) prune(seg *storage.Segment) bool {
	z := &seg.Zones[c.col]
	if c.set.Null && z.NullCount > 0 {
		return false
	}
	if z.NullCount == seg.Len() {
		return true
	}
	if src := seg.Sources(c.col, seg.Rows); src != nil {
		return !slices.ContainsFunc(src, c.keepsStr)
	}
	iv, ok := zoneBounds(seg, c.col)
	return ok && !c.set.Overlaps(iv)
}

// covers reports that every row of the sealed segment satisfies the
// conjunct.
func (c *colConjunct) covers(seg *storage.Segment) bool {
	z, n := &seg.Zones[c.col], seg.Len()
	if n == 0 || z.NullCount > 0 && !c.set.Null {
		return false
	}
	if z.NullCount == n {
		return true
	}
	if src := seg.Sources(c.col, seg.Rows); src != nil {
		return !slices.ContainsFunc(src, func(s string) bool { return !c.keepsStr(s) })
	}
	iv, ok := zoneBounds(seg, c.col)
	return ok && c.set.Covers(iv)
}

// zoneBounds returns the zone map's [Min, Max] of the segment column when
// they bound its values (see prune).
func zoneBounds(seg *storage.Segment, col int) (constraint.Interval, bool) {
	z := &seg.Zones[col]
	if !z.Ordered || !seg.Cols[col].Pure || z.Min.IsNull() {
		return constraint.Interval{}, false
	}
	return constraint.Interval{Lo: constraint.Bound{Val: z.Min}, Hi: constraint.Bound{Val: z.Max}}, true
}

// payloadI64 is a BIGINT, TIMESTAMP or BOOLEAN value's slot in an I64
// vector.
func payloadI64(v types.Value) int64 {
	switch v.Kind() {
	case types.KindTime:
		return v.TimeNanos()
	case types.KindBool:
		return int64(b2u8(v.Bool()))
	}
	return v.Int()
}

// span is one interval of a constraint restated over a vector's payload
// type; a point is a closed span of one value. cmp.Less orders floats as
// types.Compare does, NaN below everything.
type span[T cmp.Ordered] struct {
	lo, hi         T
	loInf, hiInf   bool
	loOpen, hiOpen bool
}

// spans is a constraint's set of non-NULL values over a payload type,
// sorted and disjoint.
type spans[T cmp.Ordered] []span[T]

func spansOf[T cmp.Ordered](set constraint.Constraint, payload func(types.Value) T) spans[T] {
	if !set.Range {
		s := make(spans[T], len(set.Points))
		for i, p := range set.Points {
			s[i].lo = payload(p)
			s[i].hi = s[i].lo
		}
		return s
	}
	s := make(spans[T], len(set.Ivs))
	for i, iv := range set.Ivs {
		x := &s[i]
		x.loInf, x.loOpen, x.hiInf, x.hiOpen = iv.Lo.Val.IsNull(), iv.Lo.Open, iv.Hi.Val.IsNull(), iv.Hi.Open
		if !x.loInf {
			x.lo = payload(iv.Lo.Val)
		}
		if !x.hiInf {
			x.hi = payload(iv.Hi.Val)
		}
	}
	return s
}

// below reports that every value of x lies below v.
func (x *span[T]) below(v T) bool {
	return !x.hiInf && (cmp.Less(x.hi, v) || x.hiOpen && same(x.hi, v))
}

// from reports that v does not lie below x's lower end.
func (x *span[T]) from(v T) bool {
	return x.loInf || cmp.Less(x.lo, v) || !x.loOpen && same(x.lo, v)
}

// has reports that v lies in one of the spans: the first span not wholly
// below v holds it, or none does.
func (s spans[T]) has(v T) bool {
	i, j := 0, len(s)
	for i < j {
		if h := int(uint(i+j) >> 1); s[h].below(v) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i < len(s) && s[i].from(v)
}

// same is equality in cmp.Compare's order, in which NaN equals NaN.
func same[T cmp.Ordered](a, b T) bool { return a == b || a != a && b != b }

// keep narrows sel to the rows whose value lies in the spans, and the NULL
// rows when null is set.
func (s spans[T]) keep(null bool, vals []T, nulls []bool, sel []int) []int {
	out := sel[:0]
	for _, i := range sel {
		if nulls[i] {
			if null {
				out = append(out, i)
			}
		} else if s.has(vals[i]) {
			out = append(out, i)
		}
	}
	return out
}

// fuseCmpColCol fuses `col <op> col`: typed loops for two pure vectors of
// one kind, the generic compare per value otherwise. No zone-map proof
// relates two columns.
func fuseCmpColCol(layout *Layout, lc, rc *sqlparser.ColumnRef, op sqlparser.CmpOp) (vecConjunct, bool) {
	lo, _, lok := colOffset(layout, lc)
	ro, _, rok := colOffset(layout, rc)
	if !lok || !rok {
		return vecConjunct{}, false
	}
	return vecConjunct{narrow: func(b *Batch) error {
		l, r := b.Cols[lo], b.Cols[ro]
		out := b.Sel[:0]
		if l.Pure && r.Pure && l.Kind == r.Kind && l.Kind != types.KindBool {
			for _, i := range b.Sel {
				if l.Nulls[i] || r.Nulls[i] {
					continue
				}
				var c int
				switch l.Kind {
				case types.KindString:
					c = cmp.Compare(l.Str[i], r.Str[i])
				case types.KindFloat:
					c = cmp.Compare(l.F64[i], r.F64[i])
				default:
					c = cmp.Compare(l.I64[i], r.I64[i])
				}
				if cmpSatisfies(c, op) {
					out = append(out, i)
				}
			}
			b.Sel = out
			return nil
		}
		for _, i := range b.Sel {
			lv, rv := l.Value(i), r.Value(i)
			if lv.IsNull() || rv.IsNull() {
				continue
			}
			keep, err := cmpSlow(lv, rv, op)
			if err != nil {
				b.Sel = out
				return err
			}
			if keep {
				out = append(out, i)
			}
		}
		b.Sel = out
		return nil
	}}, true
}
