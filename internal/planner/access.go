package planner

import (
	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// equiKey is one usable equijoin key pair between the joined set and a
// candidate table.
type equiKey struct {
	newExpr sqlparser.Expr // side referencing only the candidate
	curExpr sqlparser.Expr // side referencing only already-joined tables
	conj    *conjunct
}

// equijoinKeys finds unused equality conjuncts connecting the joined set to
// candidate table cand. It returns nil when there is no usable key.
func (p *Planner) equijoinKeys(conjuncts []*conjunct, layout *exec.Layout, joined map[int]bool, cand int) []*equiKey {
	var keys []*equiKey
	for _, c := range conjuncts {
		if c.used {
			continue
		}
		cmp, ok := c.expr.(*sqlparser.Comparison)
		if !ok || cmp.Op != sqlparser.CmpEq {
			continue
		}
		lb, err1 := p.bindingsOf(cmp.Left, layout)
		rb, err2 := p.bindingsOf(cmp.Right, layout)
		if err1 != nil || err2 != nil {
			continue
		}
		switch {
		case onlyBinding(lb, cand) && subsetOf(rb, joined) && len(rb) > 0:
			keys = append(keys, &equiKey{newExpr: cmp.Left, curExpr: cmp.Right, conj: c})
		case onlyBinding(rb, cand) && subsetOf(lb, joined) && len(lb) > 0:
			keys = append(keys, &equiKey{newExpr: cmp.Right, curExpr: cmp.Left, conj: c})
		}
	}
	return keys
}

func onlyBinding(set map[int]bool, b int) bool {
	return len(set) == 1 && set[b]
}

func subsetOf(set, of map[int]bool) bool {
	for b := range set {
		if !of[b] {
			return false
		}
	}
	return true
}

// accessPath picks the physical scan for binding i under its own conjuncts
// (mine: the ones reading no other binding): an index scan when an indexed
// column has a usable equality/IN key set or range, otherwise a sequential
// scan. All of mine are consumed here (the index narrows the candidate set;
// the full predicate still runs as the scan's kernel, which also keeps
// semantics exact when the index bounds are conservative, e.g. LIKE
// prefixes). Either scan carries only the columns the plan reads: what cols
// says is still read above it, plus this predicate's own. serial rules out a
// parallel heap scan, for consumers that stop after the first rows. The scan
// is bound to a snapshot when the plan is checked out.
func (p *Planner) accessPath(layout *exec.Layout, i int, mine []*conjunct, cols scanCols, serial bool) (exec.BatchOperator, float64, note, error) {
	b := layout.Bindings[i]
	tbl := b.Table
	// Estimates count live rows: a small table updated in place all day
	// (Heartbeat) carries many dead versions per row. A heap scan still
	// visits every version, so the parallel threshold looks at those.
	totalRows := float64(tbl.LiveRows())

	exprs := make([]sqlparser.Expr, len(mine))
	for k, c := range mine {
		exprs[k] = c.expr
		c.used = true
	}

	// Gather per-column index candidates.
	type candidate struct {
		col    int
		keys   []types.Value
		lo, hi storage.Bound
		est    float64
	}
	var best *candidate
	for _, col := range tbl.IndexedColumns() {
		idx := tbl.Index(col)
		ndv := float64(idx.DistinctKeys())
		if ndv < 1 {
			ndv = 1
		}
		perKey := totalRows / ndv
		colName := tbl.Schema.Columns[col].Name
		colKind := tbl.Schema.Columns[col].Kind

		if keys := equalityKeys(exprs, b.Name, colName, colKind); keys != nil {
			est := float64(len(keys)) * perKey
			if best == nil || est < best.est {
				best = &candidate{col: col, keys: keys, est: est}
			}
			continue
		}
		if lo, hi, ok := rangeBounds(mine, b.Name, colName, colKind); ok {
			est := totalRows / 3
			// ANALYZE histograms sharpen the range estimate when present.
			if st := tbl.Stats(); st != nil && col < len(st.Columns) {
				if h := st.Columns[col].Histogram; h != nil {
					est = totalRows * h.SelectivityRange(lo, hi)
				}
			}
			if best == nil || est < best.est {
				best = &candidate{col: col, lo: lo, hi: hi, est: est}
			}
		}
	}

	// The full single-table predicate becomes the scan's fused kernel.
	pred := sqlparser.AndAll(exprs...)
	kernel, fused, total, err := exec.CompileKernel(pred, layout)
	if err != nil {
		return nil, 0, note{}, err
	}
	lo, hi := b.Offset, b.Offset+tbl.Schema.NumColumns()
	need := cols.need(func(off int) bool { return off >= lo && off < hi })

	est := p.estimateRows(tbl, b.Name, mine, totalRows)
	// Equality probes read exactly the matching chains, so they are always
	// preferred; range scans only when they beat a halved heap scan.
	if best != nil && (best.keys != nil || best.est < totalRows/2) {
		if best.est < est {
			est = best.est
		}
		op := &exec.IndexScan{
			Table: tbl, Index: tbl.Index(best.col), Kernel: kernel,
			Offset: b.Offset, Width: layout.Width(), Need: need,
			Keys: best.keys, Lo: best.lo, Hi: best.hi,
		}
		return op, est, note{kind: noteIndexScan, name: b.Name, col: tbl.Schema.Columns[best.col].Name, n: len(best.keys), est: est}, nil
	}
	// Heap scan, with the predicate's zone-map side consulted before each
	// sealed segment is read: parallelize when the INPUT cardinality (every
	// heap version is visited regardless of filter selectivity) clears the
	// threshold and more than one CPU is available.
	workers := 1
	if !serial {
		workers = p.parallelWorkers(float64(tbl.NumVersions()))
	}
	segf, err := exec.CompileSegmentFilter(pred, layout, b.Offset, tbl.Schema.NumColumns())
	if err != nil {
		return nil, 0, note{}, err
	}
	n := note{kind: noteSeqScan, name: b.Name, n: workers, fused: fused, total: total, est: est, table: tbl, segf: segf}
	if workers > 1 {
		op := &exec.ParallelScan{
			Table: tbl, Kernel: kernel, SegFilter: segf,
			Offset: b.Offset, Width: layout.Width(), Need: need, Workers: workers,
		}
		return op, est, n, nil
	}
	op := &exec.BatchScan{
		Table: tbl, Kernel: kernel, SegFilter: segf,
		Offset: b.Offset, Width: layout.Width(), Need: need,
	}
	return op, est, n, nil
}

// estimateRows estimates the scan output cardinality by multiplying
// per-conjunct selectivities. With ANALYZE statistics the common shapes use
// distinct counts and histograms; the fallback is the classic one-third per
// conjunct.
func (p *Planner) estimateRows(tbl *storage.Table, binding string, mine []*conjunct, totalRows float64) float64 {
	st := tbl.Stats()
	sel := 1.0
	for _, c := range mine {
		sel *= conjunctSelectivity(tbl, st, binding, c.expr)
	}
	return sel * totalRows
}

// conjunctSelectivity estimates one conjunct's selectivity.
func conjunctSelectivity(tbl *storage.Table, st *storage.TableStats, binding string, e sqlparser.Expr) float64 {
	const fallback = 1.0 / 3
	colStats := func(name string) (*storage.ColumnStats, int) {
		ci := tbl.Schema.ColumnIndex(name)
		if ci < 0 || st == nil || ci >= len(st.Columns) {
			return nil, ci
		}
		return &st.Columns[ci], ci
	}
	switch n := e.(type) {
	case *sqlparser.Comparison:
		cr, lit := matchColLit(n.Left, n.Right, binding, tbl)
		op := n.Op
		if cr == nil {
			if cr, lit = matchColLit(n.Right, n.Left, binding, tbl); cr == nil {
				return fallback
			}
			op = n.Op.Flip()
		}
		cs, ci := colStats(cr.Column)
		if cs == nil {
			return fallback
		}
		kind := tbl.Schema.Columns[ci].Kind
		v := coerceKey(lit.Val, kind)
		switch op {
		case sqlparser.CmpEq:
			return cs.EqSelectivity()
		case sqlparser.CmpNe:
			return 1 - cs.EqSelectivity()
		case sqlparser.CmpLt:
			return cs.Histogram.SelectivityRange(storage.Unbounded, storage.Excl(v))
		case sqlparser.CmpLe:
			return cs.Histogram.SelectivityRange(storage.Unbounded, storage.Incl(v))
		case sqlparser.CmpGt:
			return cs.Histogram.SelectivityRange(storage.Excl(v), storage.Unbounded)
		case sqlparser.CmpGe:
			return cs.Histogram.SelectivityRange(storage.Incl(v), storage.Unbounded)
		}
		return fallback
	case *sqlparser.In:
		cr, ok := n.Expr.(*sqlparser.ColumnRef)
		if !ok || !matchesColumn(cr, binding, cr.Column) {
			return fallback
		}
		cs, _ := colStats(cr.Column)
		if cs == nil {
			return fallback
		}
		s := float64(len(n.List)) * cs.EqSelectivity()
		if n.Negated {
			s = 1 - s
		}
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		return s
	case *sqlparser.Between:
		cr, ok := n.Expr.(*sqlparser.ColumnRef)
		if !ok || n.Negated {
			return fallback
		}
		cs, ci := colStats(cr.Column)
		if cs == nil || cs.Histogram == nil {
			return fallback
		}
		loLit, ok1 := n.Lo.(*sqlparser.Literal)
		hiLit, ok2 := n.Hi.(*sqlparser.Literal)
		if !ok1 || !ok2 {
			return fallback
		}
		kind := tbl.Schema.Columns[ci].Kind
		return cs.Histogram.SelectivityRange(
			storage.Incl(coerceKey(loLit.Val, kind)), storage.Incl(coerceKey(hiLit.Val, kind)))
	case *sqlparser.Like:
		cr, ok := n.Expr.(*sqlparser.ColumnRef)
		if !ok || n.Negated {
			return fallback
		}
		pat, ok := n.Pattern.(*sqlparser.Literal)
		if !ok || pat.Val.Kind() != types.KindString {
			return fallback
		}
		cs, _ := colStats(cr.Column)
		if cs == nil || cs.Histogram == nil {
			return fallback
		}
		prefix := exec.LikePrefix(pat.Val.Str())
		if prefix == "" {
			return fallback
		}
		lo := storage.Incl(types.NewString(prefix))
		hi := storage.Unbounded
		if succ, ok := prefixSuccessor(prefix); ok {
			hi = storage.Excl(types.NewString(succ))
		}
		return cs.Histogram.SelectivityRange(lo, hi)
	default:
		return fallback
	}
}

// matchColLit returns (columnRef, literal) when the pair is column-vs-
// literal for this binding.
func matchColLit(a, b sqlparser.Expr, binding string, tbl *storage.Table) (*sqlparser.ColumnRef, *sqlparser.Literal) {
	cr, ok := a.(*sqlparser.ColumnRef)
	if !ok || tbl.Schema.ColumnIndex(cr.Column) < 0 {
		return nil, nil
	}
	if cr.Table != "" && !equalFold(cr.Table, binding) {
		return nil, nil
	}
	lit, ok := b.(*sqlparser.Literal)
	if !ok || lit.Val.IsNull() {
		return nil, nil
	}
	return cr, lit
}

// equalityKeys extracts literal keys for `col = lit` or `col IN (lits...)`
// over the named column from the single-table conjuncts, combining multiple
// equality conjuncts by intersection semantics left to the filter (we just
// use the first usable one, which is sufficient for index probing).
func equalityKeys(conjs []sqlparser.Expr, binding, colName string, colKind types.Kind) []types.Value {
	for _, c := range conjs {
		switch e := c.(type) {
		case *sqlparser.Comparison:
			if e.Op != sqlparser.CmpEq {
				continue
			}
			if v, ok := columnLiteral(e.Left, e.Right, binding, colName, colKind); ok {
				return []types.Value{v}
			}
			if v, ok := columnLiteral(e.Right, e.Left, binding, colName, colKind); ok {
				return []types.Value{v}
			}
		case *sqlparser.In:
			if e.Negated {
				continue
			}
			cr, ok := e.Expr.(*sqlparser.ColumnRef)
			if !ok || !matchesColumn(cr, binding, colName) {
				continue
			}
			keys := literalKeys(e.List, colKind)
			if keys != nil {
				return keys
			}
		}
	}
	return nil
}

// literalKeys converts an IN list of literals into deduplicated probe keys
// (duplicate list members must not duplicate index probes), or nil when any
// member is not a literal.
func literalKeys(list []sqlparser.Expr, colKind types.Kind) []types.Value {
	var keys []types.Value
	for _, item := range list {
		lit, ok := item.(*sqlparser.Literal)
		if !ok {
			return nil
		}
		k := coerceKey(lit.Val, colKind)
		dup := false
		for _, existing := range keys {
			if types.Equal(existing, k) {
				dup = true
				break
			}
		}
		if !dup {
			keys = append(keys, k)
		}
	}
	return keys
}

// rangeBounds extracts index range bounds from comparison/BETWEEN/LIKE
// conjuncts over the named column. ok is false when no bound was found.
func rangeBounds(mine []*conjunct, binding, colName string, colKind types.Kind) (storage.Bound, storage.Bound, bool) {
	lo, hi := storage.Unbounded, storage.Unbounded
	found := false
	tightenLo := func(b storage.Bound) {
		if lo.Unbounded || types.Less(lo.Value, b.Value) {
			lo = b
			found = true
		}
	}
	tightenHi := func(b storage.Bound) {
		if hi.Unbounded || types.Less(b.Value, hi.Value) {
			hi = b
			found = true
		}
	}
	for _, c := range mine {
		switch e := c.expr.(type) {
		case *sqlparser.Comparison:
			v, ok := columnLiteral(e.Left, e.Right, binding, colName, colKind)
			op := e.Op
			if !ok {
				if v, ok = columnLiteral(e.Right, e.Left, binding, colName, colKind); !ok {
					continue
				}
				op = e.Op.Flip()
			}
			switch op {
			case sqlparser.CmpGt:
				tightenLo(storage.Excl(v))
			case sqlparser.CmpGe:
				tightenLo(storage.Incl(v))
			case sqlparser.CmpLt:
				tightenHi(storage.Excl(v))
			case sqlparser.CmpLe:
				tightenHi(storage.Incl(v))
			}
		case *sqlparser.Between:
			if e.Negated {
				continue
			}
			cr, ok := e.Expr.(*sqlparser.ColumnRef)
			if !ok || !matchesColumn(cr, binding, colName) {
				continue
			}
			loLit, ok1 := e.Lo.(*sqlparser.Literal)
			hiLit, ok2 := e.Hi.(*sqlparser.Literal)
			if ok1 && ok2 {
				tightenLo(storage.Incl(coerceKey(loLit.Val, colKind)))
				tightenHi(storage.Incl(coerceKey(hiLit.Val, colKind)))
			}
		case *sqlparser.Like:
			if e.Negated || colKind != types.KindString {
				continue
			}
			cr, ok := e.Expr.(*sqlparser.ColumnRef)
			if !ok || !matchesColumn(cr, binding, colName) {
				continue
			}
			pat, ok := e.Pattern.(*sqlparser.Literal)
			if !ok || pat.Val.Kind() != types.KindString {
				continue
			}
			prefix := exec.LikePrefix(pat.Val.Str())
			if prefix == "" {
				continue
			}
			tightenLo(storage.Incl(types.NewString(prefix)))
			if succ, ok := prefixSuccessor(prefix); ok {
				tightenHi(storage.Excl(types.NewString(succ)))
			}
		}
	}
	return lo, hi, found
}

// prefixSuccessor returns the smallest string greater than every string
// with the given prefix (increment the last byte, dropping trailing 0xFF).
func prefixSuccessor(prefix string) (string, bool) {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xFF {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}

// columnLiteral matches (colRef, literal) and returns the literal coerced to
// the column kind.
func columnLiteral(colSide, litSide sqlparser.Expr, binding, colName string, colKind types.Kind) (types.Value, bool) {
	cr, ok := colSide.(*sqlparser.ColumnRef)
	if !ok || !matchesColumn(cr, binding, colName) {
		return types.Null, false
	}
	lit, ok := litSide.(*sqlparser.Literal)
	if !ok || lit.Val.IsNull() {
		return types.Null, false
	}
	return coerceKey(lit.Val, colKind), true
}

func matchesColumn(cr *sqlparser.ColumnRef, binding, colName string) bool {
	if cr.Table != "" && !equalFold(cr.Table, binding) {
		return false
	}
	return equalFold(cr.Column, colName)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// coerceKey converts string literals to timestamps for TIMESTAMP columns so
// index probes use comparable keys.
func coerceKey(v types.Value, colKind types.Kind) types.Value {
	if colKind == types.KindTime && v.Kind() == types.KindString {
		if ts, err := types.ParseTime(v.Str()); err == nil {
			return types.NewTime(ts)
		}
	}
	return v
}
