package exec

import (
	"fmt"
	"slices"
	"strings"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// vecConjunct is one compiled conjunct of a scan or filter predicate: the
// loop that narrows a batch's selection vector, and — when the conjunct
// reads one column of the scanned table in a shape zone maps can decide —
// the two segment-level proofs:
//
//   - prune: from the segment's per-column min/max, null-count and
//     distinct-source summaries, NO row can satisfy the conjunct, so the
//     whole segment is skipped without touching a single value;
//   - covers: the dual — EVERY row satisfies it.
//
// The narrowing loop is the same code whether the batch views a segment's
// vectors, holds a transposed run of index matches, or is a join's output:
// pure vectors take the typed loop, generic ones (a column holding a value
// of another kind than declared, possible only through the direct storage
// API; a computed projection, an aggregate's groups) exact per-value
// semantics.
type vecConjunct struct {
	narrow Kernel
	prune  func(*storage.Segment) bool
	covers func(*storage.Segment) bool
}

// selLoop narrows a selection vector over one column vector, in place.
type selLoop func(cv *storage.ColVec, sel []int) ([]int, error)

// colKernel applies a selLoop to the batch column at tuple offset off. A loop
// that drops NULLs and decides every other row by its value alone (byValue:
// comparison, IN, BETWEEN, LIKE — not IS NULL) runs over a coded vector's
// dictionary instead when that is shorter than the selection: once per
// distinct value, and the rows are then kept by code (Batch.keepByCode).
func colKernel(off int, loop selLoop, byValue bool) Kernel {
	return func(b *Batch) error {
		cv := b.Cols[off]
		if byValue && cv.Codes != nil && len(cv.Dict) < len(b.Sel) {
			return b.keepByCode(cv, loop)
		}
		sel, err := loop(cv, b.Sel)
		b.Sel = sel
		return err
	}
}

// keepByCode narrows the selection to the non-NULL rows of the coded vector
// cv whose value loop keeps, running loop over cv's dictionary viewed as a
// vector of its own. The view, the selection over it and the per-code
// outcome are scratch the batch keeps. A loop over a pure TEXT vector raises
// no error, so deciding values no selected row holds changes nothing.
//
// The outcome is a mask, one 0/1 byte per code, and the selection is
// compacted without a branch on the data: every position is written to the
// next free slot, which advances by the row's mask byte ANDed with its
// non-NULL mark. The NULL mark is needed because a NULL slot carries code 0,
// which is also Dict[0].
func (b *Batch) keepByCode(cv *storage.ColVec, loop selLoop) error {
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
	held, err := loop(d, b.codes)
	d.Str = nil
	if err != nil {
		return err
	}
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
	return nil
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
// wherever no conjunct raises an error, and a conjunct only has a zone-map
// proof for kind pairings whose loop cannot raise one on values a zone map
// admits. On error-free inputs the outputs are identical to evaluating the
// whole predicate row by row.
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
		if c.prune != nil && c.prune(seg) {
			return true
		}
	}
	return false
}

// Covers is the dual of Prune: it proves from the zone maps alone that every
// row version in the segment satisfies the whole predicate (every conjunct
// has a proof and it holds). Aggregation pushdown uses it to answer a
// segment from its zone-map stats without reading a row; coverage requires
// NullCount == 0 on the tested column, so no row can be UNKNOWN, and each
// proof only fires after the same successful bound comparisons that make
// pruning error-exact. A tail window, with no zone maps, is never covered.
func (f *SegmentFilter) Covers(seg *storage.Segment) bool {
	if seg.Zones == nil {
		return false
	}
	for _, c := range f.conjs {
		if c.covers == nil || !c.covers(seg) {
			return false
		}
	}
	return true
}

// zoneCol returns the position in the scanned table of the column at tuple
// offset off, and whether the column belongs to that table at all: only
// then does a conjunct over it get zone-map proofs. A kernel (tblCols 0)
// never asks for them, so the proofs are built only for a SegmentFilter.
func zoneCol(off, base, tblCols int) (int, bool) {
	col := off - base
	return col, col >= 0 && col < tblCols
}

// fuseConjunct returns the fused form of one conjunct, or ok=false when the
// shape (or its kind pairing) has no typed loop and must go through the
// compiled Evaluator, which keeps its (possibly error-raising) semantics
// byte-for-byte.
func fuseConjunct(e sqlparser.Expr, layout *Layout, base, tblCols int) (vecConjunct, bool) {
	c := &compiler{layout: layout}
	switch n := e.(type) {
	case *sqlparser.Comparison:
		left, right := n.Left, n.Right
		c.coerceTimePair(&left, &right)
		if lc, lok := left.(*sqlparser.ColumnRef); lok {
			if rc, rok := right.(*sqlparser.ColumnRef); rok {
				return fuseCmpColCol(layout, lc, rc, n.Op)
			}
			if lit, ok := right.(*sqlparser.Literal); ok {
				return fuseCmpColLit(layout, base, tblCols, lc, lit.Val, n.Op)
			}
		}
		if rc, rok := right.(*sqlparser.ColumnRef); rok {
			if lit, ok := left.(*sqlparser.Literal); ok {
				return fuseCmpColLit(layout, base, tblCols, rc, lit.Val, n.Op.Flip())
			}
		}
	case *sqlparser.In:
		return fuseIn(c, n, base, tblCols)
	case *sqlparser.Between:
		return fuseBetween(c, n, base, tblCols)
	case *sqlparser.Like:
		return fuseLike(layout, n, base, tblCols)
	case *sqlparser.IsNull:
		return fuseIsNull(layout, n, base, tblCols)
	}
	return vecConjunct{}, false
}

// dropAll is the conjunct that is UNKNOWN on every row (NULL literal
// operands): nothing survives and every segment prunes.
func dropAll(off, base, tblCols int) vecConjunct {
	vc := vecConjunct{narrow: func(b *Batch) error {
		b.Sel = b.Sel[:0]
		return nil
	}}
	if _, ok := zoneCol(off, base, tblCols); ok {
		vc.prune = func(*storage.Segment) bool { return true }
	}
	return vc
}

// allNull reports a zone map proving the column is NULL in every row of the
// segment — any comparison, IN, BETWEEN, or LIKE over it is UNKNOWN
// everywhere, which NULL operands can never turn into an error.
func allNull(z *storage.ZoneMap) bool { return z.Ordered && z.Min.IsNull() }

// pruneCmpZone decides `col <op> lit` can match no row from the column's
// min/max bounds. A failed bound comparison (unorderable kinds) disables
// pruning. Correctness under errors: Ordered plus a successful lit-vs-bound
// comparison imply every non-null value in the segment is comparable with
// lit, so no skipped row could have raised a compare error.
func pruneCmpZone(z *storage.ZoneMap, lit types.Value, op sqlparser.CmpOp) bool {
	if allNull(z) {
		return true
	}
	if !z.Ordered || z.Min.IsNull() {
		return false
	}
	cmpMin, errMin := types.Compare(lit, z.Min)
	cmpMax, errMax := types.Compare(lit, z.Max)
	if errMin != nil || errMax != nil {
		return false
	}
	switch op {
	case sqlparser.CmpEq:
		return cmpMin < 0 || cmpMax > 0
	case sqlparser.CmpNe:
		// Every non-null value equals the literal only when the bounds pin
		// a single value.
		return cmpMin == 0 && cmpMax == 0
	case sqlparser.CmpLt:
		return cmpMin <= 0 // lit <= min: nothing below it
	case sqlparser.CmpLe:
		return cmpMin < 0
	case sqlparser.CmpGt:
		return cmpMax >= 0 // lit >= max: nothing above it
	case sqlparser.CmpGe:
		return cmpMax > 0
	}
	return false
}

// coverCmpZone decides `col <op> lit` holds for EVERY row from the column's
// min/max bounds: the dual of pruneCmpZone. NullCount must be zero (a NULL
// row would be UNKNOWN, not TRUE) and, as for pruning, Ordered plus the
// successful lit-vs-bound comparisons rule out per-row compare errors.
func coverCmpZone(z *storage.ZoneMap, segLen int, lit types.Value, op sqlparser.CmpOp) bool {
	if !z.Ordered || z.Min.IsNull() || z.NullCount > 0 || segLen == 0 {
		return false
	}
	cmpMin, errMin := types.Compare(lit, z.Min)
	cmpMax, errMax := types.Compare(lit, z.Max)
	if errMin != nil || errMax != nil {
		return false
	}
	switch op {
	case sqlparser.CmpEq:
		return cmpMin == 0 && cmpMax == 0 // bounds pin exactly the literal
	case sqlparser.CmpNe:
		return cmpMin < 0 || cmpMax > 0 // literal outside [min,max]
	case sqlparser.CmpLt:
		return cmpMax > 0 // lit > max: every row below it
	case sqlparser.CmpLe:
		return cmpMax >= 0
	case sqlparser.CmpGt:
		return cmpMin < 0 // lit < min: every row above it
	case sqlparser.CmpGe:
		return cmpMin <= 0
	}
	return false
}

// segCmpValue is the per-value decision for `col <op> lit` on a generic
// vector: fast path on matching runtime kind, NULL → drop, generic compare
// with error propagation otherwise.
func segCmpValue(v types.Value, colKind types.Kind, lit types.Value, op sqlparser.CmpOp) (bool, error) {
	if v.IsNull() {
		return false, nil
	}
	switch {
	case colKind == types.KindString && lit.Kind() == types.KindString &&
		(op == sqlparser.CmpEq || op == sqlparser.CmpNe):
		if v.Kind() == types.KindString {
			return (v.Str() == lit.Str()) == (op == sqlparser.CmpEq), nil
		}
	case colKind == types.KindString && lit.Kind() == types.KindString:
		if v.Kind() == types.KindString {
			return cmpSatisfies(strings.Compare(v.Str(), lit.Str()), op), nil
		}
	case colKind == types.KindInt && lit.Kind() == types.KindInt:
		if v.Kind() == types.KindInt {
			return cmpSatisfies(cmpI64(v.Int(), lit.Int()), op), nil
		}
	case colKind == types.KindTime && lit.Kind() == types.KindTime:
		if v.Kind() == types.KindTime {
			return cmpSatisfies(cmpI64(v.TimeNanos(), lit.TimeNanos()), op), nil
		}
	case colKind == types.KindFloat && lit.Kind() == types.KindFloat:
		if v.Kind() == types.KindFloat {
			return cmpSatisfies(cmpF64(v.Float(), lit.Float()), op), nil
		}
	case numericKind(colKind) && numericKind(lit.Kind()):
		if f, ok := v.AsFloat(); ok {
			lf, _ := lit.AsFloat()
			return cmpSatisfies(cmpF64(f, lf), op), nil
		}
	}
	return cmpSlow(v, lit, op)
}

// fuseCmpColLit fuses `col <op> literal` for same-kind TEXT/INT/TIMESTAMP/
// FLOAT pairings and mixed INT/FLOAT; other pairings keep the Evaluator's
// (possibly error-raising) semantics.
func fuseCmpColLit(layout *Layout, base, tblCols int, cr *sqlparser.ColumnRef, lit types.Value, op sqlparser.CmpOp) (vecConjunct, bool) {
	off, colKind, ok := colOffset(layout, cr)
	if !ok {
		return vecConjunct{}, false
	}
	if lit.IsNull() {
		// col <op> NULL is UNKNOWN for every row.
		return dropAll(off, base, tblCols), true
	}
	strEqNe := colKind == types.KindString && lit.Kind() == types.KindString &&
		(op == sqlparser.CmpEq || op == sqlparser.CmpNe)
	switch {
	case strEqNe:
	case colKind == types.KindString && lit.Kind() == types.KindString:
	case colKind == types.KindInt && lit.Kind() == types.KindInt:
	case colKind == types.KindTime && lit.Kind() == types.KindTime:
	case colKind == types.KindFloat && lit.Kind() == types.KindFloat:
	case numericKind(colKind) && numericKind(lit.Kind()):
	default:
		return vecConjunct{}, false
	}
	lf, _ := lit.AsFloat() // set for the numeric pairings
	narrow := func(cv *storage.ColVec, sel []int) ([]int, error) {
		out := sel[:0]
		if cv.Pure {
			switch {
			case strEqNe:
				ls, want := lit.Str(), op == sqlparser.CmpEq
				for _, i := range sel {
					if !cv.Nulls[i] && (cv.Str[i] == ls) == want {
						out = append(out, i)
					}
				}
			case colKind == types.KindString:
				ls := lit.Str()
				for _, i := range sel {
					if !cv.Nulls[i] && cmpSatisfies(strings.Compare(cv.Str[i], ls), op) {
						out = append(out, i)
					}
				}
			case colKind == types.KindInt && lit.Kind() == types.KindInt:
				li := lit.Int()
				for _, i := range sel {
					if !cv.Nulls[i] && cmpSatisfies(cmpI64(cv.I64[i], li), op) {
						out = append(out, i)
					}
				}
			case colKind == types.KindTime:
				ln := lit.TimeNanos()
				for _, i := range sel {
					if !cv.Nulls[i] && cmpSatisfies(cmpI64(cv.I64[i], ln), op) {
						out = append(out, i)
					}
				}
			case colKind == types.KindFloat && lit.Kind() == types.KindFloat:
				for _, i := range sel {
					if !cv.Nulls[i] && cmpSatisfies(cmpF64(cv.F64[i], lf), op) {
						out = append(out, i)
					}
				}
			case colKind == types.KindInt: // numeric-mixed: INT column, FLOAT literal
				for _, i := range sel {
					if !cv.Nulls[i] && cmpSatisfies(cmpF64(float64(cv.I64[i]), lf), op) {
						out = append(out, i)
					}
				}
			default: // numeric-mixed: FLOAT column, INT literal
				for _, i := range sel {
					if !cv.Nulls[i] && cmpSatisfies(cmpF64(cv.F64[i], lf), op) {
						out = append(out, i)
					}
				}
			}
			return out, nil
		}
		for _, i := range sel {
			keep, err := segCmpValue(cv.Vals[i], colKind, lit, op)
			if err != nil {
				return out, err
			}
			if keep {
				out = append(out, i)
			}
		}
		return out, nil
	}
	vc := vecConjunct{narrow: colKernel(off, narrow, true)}
	if col, ok := zoneCol(off, base, tblCols); ok {
		vc.prune = func(seg *storage.Segment) bool { return pruneCmpZone(&seg.Zones[col], lit, op) }
		vc.covers = func(seg *storage.Segment) bool { return coverCmpZone(&seg.Zones[col], seg.Len(), lit, op) }
	}
	return vc, true
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
				var cmp int
				switch l.Kind {
				case types.KindString:
					cmp = strings.Compare(l.Str[i], r.Str[i])
				case types.KindFloat:
					cmp = cmpF64(l.F64[i], r.F64[i])
				default:
					cmp = cmpI64(l.I64[i], r.I64[i])
				}
				if cmpSatisfies(cmp, op) {
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

// fuseIn fuses `col [NOT] IN (literals...)`. Semantics match the Evaluator:
// a NULL probe value is UNKNOWN (dropped); a match wins over a NULL list
// member; no match with a NULL member is UNKNOWN (dropped); compare errors
// against individual members are ignored (treated as non-matches).
// Pruning: an all-NULL column is UNKNOWN everywhere; for the non-negated
// form a segment prunes when the tracked distinct-source set is disjoint
// from the probe list (the TRAC recency short-circuit: a segment whose
// sources a query never asks about contributes nothing), or when every
// member falls outside the column's [min,max].
func fuseIn(c *compiler, n *sqlparser.In, base, tblCols int) (vecConjunct, bool) {
	expr := n.Expr
	items := make([]sqlparser.Expr, len(n.List))
	copy(items, n.List)
	for i := range items {
		c.coerceTimePair(&expr, &items[i])
	}
	cr, ok := expr.(*sqlparser.ColumnRef)
	if !ok {
		return vecConjunct{}, false
	}
	off, colKind, ok := colOffset(c.layout, cr)
	if !ok {
		return vecConjunct{}, false
	}
	vals := make([]types.Value, 0, len(items))
	hasNullItem := false
	allStrings := colKind == types.KindString
	for _, it := range items {
		lit, ok := it.(*sqlparser.Literal)
		if !ok {
			return vecConjunct{}, false
		}
		if lit.Val.IsNull() {
			hasNullItem = true
			continue
		}
		if lit.Val.Kind() != types.KindString {
			allStrings = false
		}
		vals = append(vals, lit.Val)
	}
	negated := n.Negated

	var set map[string]struct{}
	if allStrings {
		set = make(map[string]struct{}, len(vals))
		for _, v := range vals {
			set[v.Str()] = struct{}{}
		}
	}
	narrow := func(cv *storage.ColVec, sel []int) ([]int, error) {
		out := sel[:0]
		if allStrings && cv.Pure {
			for _, i := range sel {
				if cv.Nulls[i] {
					continue
				}
				_, matched := set[cv.Str[i]]
				if inKeeps(matched, hasNullItem, negated) {
					out = append(out, i)
				}
			}
			return out, nil
		}
		for _, i := range sel {
			v := cv.Value(i)
			if v.IsNull() {
				continue
			}
			matched := false
			if allStrings {
				if v.Kind() == types.KindString {
					_, matched = set[v.Str()]
				}
			} else {
				for _, iv := range vals {
					if cmp, err := types.Compare(v, iv); err == nil && cmp == 0 {
						matched = true
						break
					}
				}
			}
			if inKeeps(matched, hasNullItem, negated) {
				out = append(out, i)
			}
		}
		return out, nil
	}
	vc := vecConjunct{narrow: colKernel(off, narrow, true)}
	col, ok := zoneCol(off, base, tblCols)
	if !ok {
		return vc, true
	}
	vc.prune = func(seg *storage.Segment) bool {
		z := &seg.Zones[col]
		if allNull(z) {
			return true
		}
		if negated {
			return false
		}
		if sources := seg.Sources(col, seg.Rows); allStrings && sources != nil {
			for _, v := range vals {
				if _, ok := slices.BinarySearch(sources, v.Str()); ok {
					return false
				}
			}
			return true
		}
		if !z.Ordered || z.Min.IsNull() {
			return false
		}
		for _, v := range vals {
			cmpMin, errMin := types.Compare(v, z.Min)
			cmpMax, errMax := types.Compare(v, z.Max)
			if errMin != nil || errMax != nil {
				return false
			}
			if cmpMin >= 0 && cmpMax <= 0 {
				return false // member inside the bounds: could match
			}
		}
		return true
	}
	// Coverage (non-negated only): with no NULL rows, every row matches when
	// the tracked distinct-source set is a subset of the probe list (the dual
	// of the disjointness prune), or when the bounds pin a single value that
	// is a list member. A matched row is TRUE even with a NULL list item, so
	// hasNullItem does not weaken the proof.
	vc.covers = func(seg *storage.Segment) bool {
		z := &seg.Zones[col]
		if negated || z.NullCount > 0 || seg.Len() == 0 {
			return false
		}
		if sources := seg.Sources(col, seg.Rows); allStrings && sources != nil {
			for _, src := range sources {
				if _, ok := set[src]; !ok {
					return false
				}
			}
			return true
		}
		if !z.Ordered || z.Min.IsNull() {
			return false
		}
		for _, v := range vals {
			cmpMin, errMin := types.Compare(v, z.Min)
			cmpMax, errMax := types.Compare(v, z.Max)
			if errMin == nil && errMax == nil && cmpMin == 0 && cmpMax == 0 {
				return true
			}
		}
		return false
	}
	return vc, true
}

// fuseBetween fuses `col [NOT] BETWEEN lit AND lit` when the bound kinds
// match the column (or everything is numeric); other pairings keep the
// Evaluator's error-raising semantics. Pruning (non-negated only) fires
// when the range and the zone bounds are disjoint and every bound-vs-bound
// comparison succeeded — which, with Ordered, rules out per-row errors on
// the skipped segment.
func fuseBetween(c *compiler, n *sqlparser.Between, base, tblCols int) (vecConjunct, bool) {
	expr, lo, hi := n.Expr, n.Lo, n.Hi
	c.coerceTimePair(&expr, &lo)
	c.coerceTimePair(&expr, &hi)
	cr, ok := expr.(*sqlparser.ColumnRef)
	if !ok {
		return vecConjunct{}, false
	}
	off, colKind, ok := colOffset(c.layout, cr)
	if !ok {
		return vecConjunct{}, false
	}
	loLit, ok := lo.(*sqlparser.Literal)
	if !ok {
		return vecConjunct{}, false
	}
	hiLit, ok := hi.(*sqlparser.Literal)
	if !ok {
		return vecConjunct{}, false
	}
	lov, hiv := loLit.Val, hiLit.Val
	if lov.IsNull() || hiv.IsNull() {
		// A NULL bound makes every row UNKNOWN.
		return dropAll(off, base, tblCols), true
	}
	sameKind := lov.Kind() == colKind && hiv.Kind() == colKind
	numeric := numericKind(colKind) && numericKind(lov.Kind()) && numericKind(hiv.Kind())
	if !sameKind && !numeric {
		return vecConjunct{}, false
	}
	negated := n.Negated
	lof, _ := lov.AsFloat()
	hif, _ := hiv.AsFloat()
	narrow := func(cv *storage.ColVec, sel []int) ([]int, error) {
		out := sel[:0]
		if cv.Pure {
			keep := func(in bool) bool { return in != negated }
			switch {
			case colKind == types.KindInt && sameKind:
				loi, hii := lov.Int(), hiv.Int()
				for _, i := range sel {
					if !cv.Nulls[i] && keep(cv.I64[i] >= loi && cv.I64[i] <= hii) {
						out = append(out, i)
					}
				}
			case colKind == types.KindTime:
				lon, hin := lov.TimeNanos(), hiv.TimeNanos()
				for _, i := range sel {
					if !cv.Nulls[i] && keep(cv.I64[i] >= lon && cv.I64[i] <= hin) {
						out = append(out, i)
					}
				}
			case colKind == types.KindString:
				los, his := lov.Str(), hiv.Str()
				for _, i := range sel {
					if !cv.Nulls[i] && keep(cv.Str[i] >= los && cv.Str[i] <= his) {
						out = append(out, i)
					}
				}
			case colKind == types.KindFloat:
				// cmpF64 ordering (NaN smallest) matches types.Compare.
				for _, i := range sel {
					if !cv.Nulls[i] && keep(cmpF64(cv.F64[i], lof) >= 0 && cmpF64(cv.F64[i], hif) <= 0) {
						out = append(out, i)
					}
				}
			default: // numeric-mixed with an INT column
				for _, i := range sel {
					f := float64(cv.I64[i])
					if !cv.Nulls[i] && keep(cmpF64(f, lof) >= 0 && cmpF64(f, hif) <= 0) {
						out = append(out, i)
					}
				}
			}
			return out, nil
		}
		for _, i := range sel {
			v := cv.Vals[i]
			if v.IsNull() {
				continue
			}
			cl, err := types.Compare(v, lov)
			if err != nil {
				return out, err
			}
			ch, err := types.Compare(v, hiv)
			if err != nil {
				return out, err
			}
			if in := cl >= 0 && ch <= 0; in != negated {
				out = append(out, i)
			}
		}
		return out, nil
	}
	vc := vecConjunct{narrow: colKernel(off, narrow, true)}
	col, ok := zoneCol(off, base, tblCols)
	if !ok {
		return vc, true
	}
	vc.prune = func(seg *storage.Segment) bool {
		z := &seg.Zones[col]
		if allNull(z) {
			return true
		}
		if negated || !z.Ordered || z.Min.IsNull() {
			return false
		}
		loMax, e1 := types.Compare(lov, z.Max)
		hiMin, e2 := types.Compare(hiv, z.Min)
		if e1 != nil || e2 != nil {
			return false
		}
		return loMax > 0 || hiMin < 0
	}
	// Coverage: no NULL rows, and the zone bounds sit inside the range
	// (non-negated) or entirely outside it (negated).
	vc.covers = func(seg *storage.Segment) bool {
		z := &seg.Zones[col]
		if !z.Ordered || z.Min.IsNull() || z.NullCount > 0 || seg.Len() == 0 {
			return false
		}
		loMin, e1 := types.Compare(lov, z.Min)
		hiMax, e2 := types.Compare(hiv, z.Max)
		loMax, e3 := types.Compare(lov, z.Max)
		hiMin, e4 := types.Compare(hiv, z.Min)
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
			return false
		}
		if negated {
			return loMax > 0 || hiMin < 0
		}
		return loMin <= 0 && hiMax >= 0
	}
	return vc, true
}

// fuseLike fuses `col [NOT] LIKE 'pattern'` over TEXT columns. Only the
// all-NULL prune applies (always error-free); non-TEXT declared columns go
// through the Evaluator so its type error surfaces identically.
func fuseLike(layout *Layout, n *sqlparser.Like, base, tblCols int) (vecConjunct, bool) {
	cr, ok := n.Expr.(*sqlparser.ColumnRef)
	if !ok {
		return vecConjunct{}, false
	}
	pat, ok := n.Pattern.(*sqlparser.Literal)
	if !ok || pat.Val.Kind() != types.KindString {
		return vecConjunct{}, false
	}
	off, colKind, ok := colOffset(layout, cr)
	if !ok || colKind != types.KindString {
		return vecConjunct{}, false
	}
	pattern := pat.Val.Str()
	negated := n.Negated
	narrow := func(cv *storage.ColVec, sel []int) ([]int, error) {
		out := sel[:0]
		if cv.Pure {
			for _, i := range sel {
				if !cv.Nulls[i] && MatchLike(cv.Str[i], pattern) != negated {
					out = append(out, i)
				}
			}
			return out, nil
		}
		for _, i := range sel {
			v := cv.Vals[i]
			if v.IsNull() {
				continue
			}
			if v.Kind() != types.KindString {
				return out, fmt.Errorf("exec: LIKE requires TEXT operands")
			}
			if MatchLike(v.Str(), pattern) != negated {
				out = append(out, i)
			}
		}
		return out, nil
	}
	vc := vecConjunct{narrow: colKernel(off, narrow, true)}
	if col, ok := zoneCol(off, base, tblCols); ok {
		vc.prune = func(seg *storage.Segment) bool { return allNull(&seg.Zones[col]) }
	}
	return vc, true
}

// fuseIsNull fuses `col IS [NOT] NULL` over the null marks, pruning via the
// zone map's null count.
func fuseIsNull(layout *Layout, n *sqlparser.IsNull, base, tblCols int) (vecConjunct, bool) {
	cr, ok := n.Expr.(*sqlparser.ColumnRef)
	if !ok {
		return vecConjunct{}, false
	}
	off, _, ok := colOffset(layout, cr)
	if !ok {
		return vecConjunct{}, false
	}
	negated := n.Negated
	narrow := func(cv *storage.ColVec, sel []int) ([]int, error) {
		out := sel[:0]
		if !cv.Pure {
			for _, i := range sel {
				if cv.Vals[i].IsNull() != negated {
					out = append(out, i)
				}
			}
			return out, nil
		}
		for _, i := range sel {
			if cv.Nulls[i] != negated {
				out = append(out, i)
			}
		}
		return out, nil
	}
	vc := vecConjunct{narrow: colKernel(off, narrow, false)}
	col, ok := zoneCol(off, base, tblCols)
	if !ok {
		return vc, true
	}
	vc.prune = func(seg *storage.Segment) bool {
		z := &seg.Zones[col]
		if negated {
			return z.NullCount == seg.Len()
		}
		return z.NullCount == 0
	}
	// Coverage is exact off the null count alone: IS NULL covers an all-NULL
	// segment, IS NOT NULL a null-free one.
	vc.covers = func(seg *storage.Segment) bool {
		z := &seg.Zones[col]
		if seg.Len() == 0 {
			return false
		}
		if negated {
			return z.NullCount == 0
		}
		return z.NullCount == seg.Len()
	}
	return vc, true
}
