package planner

import (
	"trac/internal/constraint"
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
	reads := readAll(tbl, b.Name, exprs)

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

		if keys := equalityKeys(reads, col); keys != nil {
			est := float64(len(keys)) * perKey
			if best == nil || est < best.est {
				best = &candidate{col: col, keys: keys, est: est}
			}
			continue
		}
		if lo, hi, ok := rangeBounds(reads, col); ok {
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

	// The full single-table predicate becomes the scan's fused kernel, and a
	// heap scan also consults its zone-map side before each sealed segment
	// is read. Both come from one compilation.
	segf, err := exec.CompileSegmentFilter(sqlparser.AndAll(exprs...), layout, b.Offset, tbl.Schema.NumColumns())
	if err != nil {
		return nil, 0, note{}, err
	}
	kernel := segf.Kernel()
	lo, hi := b.Offset, b.Offset+tbl.Schema.NumColumns()
	need := cols.need(func(off int) bool { return off >= lo && off < hi })

	est := estimateRows(tbl, reads, totalRows)
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
	// Heap scan: parallelize when the INPUT cardinality (every heap version
	// is visited regardless of filter selectivity) clears the threshold and
	// more than one CPU is available.
	workers := 1
	if !serial {
		workers = p.parallelWorkers(float64(tbl.NumVersions()))
	}
	n := note{kind: noteSeqScan, name: b.Name, n: workers, est: est, table: tbl, segf: segf}
	if segf != nil {
		n.fused, n.total = segf.Fused, segf.Total
	}
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
func estimateRows(tbl *storage.Table, reads []colRead, totalRows float64) float64 {
	st := tbl.Stats()
	sel := 1.0
	for _, r := range reads {
		sel *= r.selectivity(st)
	}
	return sel * totalRows
}

// colRead is one conjunct of a binding read as a constraint on column col
// of its table; col is -1 for a conjunct the constraint package leaves
// unread, and for a restated one (a FLOAT literal against an INT column):
// an index may file values of another kind that it does not describe.
type colRead struct {
	col int
	c   constraint.Constraint
}

// readAll reads each of a binding's conjuncts once, for every decision the
// planner takes from them.
func readAll(tbl *storage.Table, binding string, exprs []sqlparser.Expr) []colRead {
	reads := make([]colRead, len(exprs))
	for i, e := range exprs {
		col := -1
		c, ok := constraint.Read(e, func(cr *sqlparser.ColumnRef) (types.Kind, bool) {
			if cr.Table != "" && !equalFold(cr.Table, binding) {
				return types.KindNull, false
			}
			if col = tbl.Schema.ColumnIndex(cr.Column); col < 0 {
				return types.KindNull, false
			}
			return tbl.Schema.Columns[col].Kind, true
		})
		if !ok || c.Restated {
			col = -1
		}
		reads[i] = colRead{col: col, c: c}
	}
	return reads
}

// selectivity estimates the conjunct's selectivity from its constraint: a
// point set by distinct counts, the complement of one likewise, a range by
// the column's histogram. IS NULL and unread conjuncts keep the fallback.
func (r colRead) selectivity(st *storage.TableStats) float64 {
	const fallback = 1.0 / 3
	c := r.c
	if r.col < 0 || c.Null || st == nil || r.col >= len(st.Columns) {
		return fallback
	}
	cs := &st.Columns[r.col]
	if !c.Range {
		return min(1, float64(len(c.Points))*cs.EqSelectivity())
	}
	if p := c.Complement(); !p.Range {
		return max(0, 1-float64(len(p.Points))*cs.EqSelectivity())
	}
	if cs.Histogram == nil {
		return fallback
	}
	s := 0.0
	for _, iv := range c.Ivs {
		s += cs.Histogram.SelectivityRange(storageBound(iv.Lo), storageBound(iv.Hi))
	}
	return min(1, s)
}

// equalityKeys returns the probe keys of the first conjunct that pins
// column col to a point set: `col = lit`, `col IN (lits)`, or any other form
// whose constraint is one. The points are distinct, so duplicate list
// members never duplicate index probes.
func equalityKeys(reads []colRead, col int) []types.Value {
	for _, r := range reads {
		if r.col == col && !r.c.Range && !r.c.Null && len(r.c.Points) > 0 {
			return r.c.Points
		}
	}
	return nil
}

// rangeBounds returns the hull of what the conjuncts over column col keep
// together, as index range bounds. ok is false when they bound nothing.
func rangeBounds(reads []colRead, col int) (storage.Bound, storage.Bound, bool) {
	var all constraint.Constraint
	found := false
	for _, r := range reads {
		if r.col == col {
			c := r.c
			if found {
				c = all.Intersect(c)
			}
			all, found = c, true
		}
	}
	iv, ok := all.Hull()
	if !found || !ok || iv.Lo.Val.IsNull() && iv.Hi.Val.IsNull() {
		return storage.Unbounded, storage.Unbounded, false
	}
	return storageBound(iv.Lo), storageBound(iv.Hi), true
}

// storageBound is a constraint bound as an index or histogram bound.
func storageBound(b constraint.Bound) storage.Bound {
	switch {
	case b.Val.IsNull():
		return storage.Unbounded
	case b.Open:
		return storage.Excl(b.Val)
	}
	return storage.Incl(b.Val)
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
