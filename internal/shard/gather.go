package shard

import (
	"fmt"
	"strings"

	"trac/internal/core/report"
	"trac/internal/engine"
	"trac/internal/exec"
	"trac/internal/planner"
	"trac/internal/sqlparser"
	"trac/internal/types"
)

// Query runs a SELECT across the shards under a fresh consistent cut.
func (r *Router) Query(sql string) (*engine.Result, error) {
	cut, err := r.Cut()
	if err != nil {
		return nil, err
	}
	return r.QueryAt(sql, cut)
}

// pin captures one cut and returns the read point that runs statements under
// it: what a recency report passes both of its queries through.
func (r *Router) pin() (report.ReadPoint, error) {
	cut, err := r.Cut()
	if err != nil {
		return report.ReadPoint{}, err
	}
	return report.ReadPoint{
		Rows: func(sel *sqlparser.SelectStmt, sql string) (*engine.Result, error) {
			return r.QueryStmtAt(sel, sql, cut)
		},
		Batch: func(sel *sqlparser.SelectStmt, sql string) (*exec.Batch, error) {
			return r.QueryBatchAt(sel, sql, cut)
		},
	}, nil
}

// QueryAt runs a SELECT under a caller-provided cut.
func (r *Router) QueryAt(sql string, cut Cut) (*engine.Result, error) {
	sel, err := r.shards[0].ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return r.QueryStmtAt(sel, sql, cut)
}

// QueryStmtAt runs an already-parsed SELECT under a cut. The SQL text keys
// the scatter-plan cache.
func (r *Router) QueryStmtAt(sel *sqlparser.SelectStmt, sql string, cut Cut) (*engine.Result, error) {
	sp, err := r.plan(sel, sql, cut.Version)
	if err != nil {
		return nil, err
	}
	if sp.walk == nil {
		return r.executeScatter(sp, cut)
	}
	// A statement run whole on one shard answers in a batch; a row caller
	// boxes it here.
	res := &engine.Result{Columns: sp.columns}
	b, err := r.runAnchored(sp, cut, res)
	if err != nil {
		return nil, err
	}
	if b != nil {
		res.Rows = b.AppendRows(nil)
		exec.PutBatch(b)
	}
	return res, nil
}

// QueryBatchAt is QueryStmtAt returning the answer unboxed, as one batch the
// caller owns (nil when there are no rows; engine.DB.QueryBatchAt). A
// statement run whole on one shard answers in a batch already; any other is
// gathered as rows and transposed into one once.
func (r *Router) QueryBatchAt(sel *sqlparser.SelectStmt, sql string, cut Cut) (*exec.Batch, error) {
	sp, err := r.plan(sel, sql, cut.Version)
	if err != nil {
		return nil, err
	}
	if sp.walk != nil {
		return r.runAnchored(sp, cut, &engine.Result{})
	}
	res, err := r.executeScatter(sp, cut)
	if err != nil {
		return nil, err
	}
	return exec.BatchOf(res.Rows), nil
}

// plan returns the cached scatter decomposition for (sql, catalog version),
// decomposing on miss. The version comes from a Cut, so a cached plan can
// never be replayed against a shard set that has since seen DDL.
func (r *Router) plan(sel *sqlparser.SelectStmt, sql string, version uint64) (*scatterPlan, error) {
	key := "scatter:" + engine.NormalizeSQL(sql)
	if v, ok := r.cache.Get(key, version); ok {
		return v.(*scatterPlan), nil
	}
	sp, err := r.decompose(sel)
	if err != nil {
		return nil, err
	}
	r.cache.Put(key, version, sp)
	return sp, nil
}

// Explain renders the scatter decomposition — the per-block `shards: k of N,
// pruned p` note — followed by the engine plan of each block's first shard;
// a statement that runs whole on one shard (anchoredWalk) is one note and its
// first shard's plan.
func (r *Router) Explain(sql string) (string, error) {
	cut, err := r.Cut()
	if err != nil {
		return "", err
	}
	sel, err := r.shards[0].ParseSelect(sql)
	if err != nil {
		return "", err
	}
	sp, err := r.plan(sel, sql, cut.Version)
	if err != nil {
		return "", err
	}
	if sp.walk != nil {
		first := sp.walk[0]
		plan, err := r.shards[first].Planner().PlanSelect(sp.sel, cut.Snaps[first])
		if err != nil {
			return "", err
		}
		note := fmt.Sprintf("shards: 1 of %d, replicated", len(r.shards))
		if !sp.replicated() {
			note = planner.ShardNote(1, len(r.shards), len(r.shards)-len(sp.walk)) +
				", anchored union on one shard (next shard only while a partitioned existence probe is exhausted)"
		}
		return fmt.Sprintf("scatter: %s\nshard %d plan:\n%s", note, first, plan.Describe()), nil
	}
	var sb strings.Builder
	for i, bp := range sp.blocks {
		if len(sp.blocks) > 1 {
			fmt.Fprintf(&sb, "scatter block %d: ", i)
		} else {
			sb.WriteString("scatter: ")
		}
		if bp.replicated {
			fmt.Fprintf(&sb, "shards: 1 of %d, replicated", len(r.shards))
		} else {
			sb.WriteString(planner.ShardNote(len(bp.shards), len(r.shards), bp.pruned))
		}
		sb.WriteString("\n")
		first := bp.shards[0]
		plan, err := r.shards[first].Planner().PlanSelect(bp.stmt, cut.Snaps[first])
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "shard %d plan:\n%s\n", first, plan.Describe())
	}
	return strings.TrimRight(sb.String(), "\n"), nil
}

// executeScatter plans every (block, shard) statement under the cut's
// snapshots, drains all of them concurrently (the scatter), then merges
// per-shard partials in deterministic shard order (the gather). Callers run
// a statement with a walk whole instead (runAnchored).
func (r *Router) executeScatter(sp *scatterPlan, cut Cut) (*engine.Result, error) {
	var ops []exec.Operator
	starts := make([]int, len(sp.blocks)+1)
	maxParallel, vectorized := 1, false
	for bi, bp := range sp.blocks {
		starts[bi] = len(ops)
		for _, s := range bp.shards {
			pl, err := r.shards[s].Planner().PlanSelect(bp.stmt, cut.Snaps[s])
			if err != nil {
				return nil, err
			}
			maxParallel = max(maxParallel, pl.Parallel)
			vectorized = vectorized || pl.Vectorized
			ops = append(ops, pl.Root)
		}
	}
	starts[len(sp.blocks)] = len(ops)
	perOp, err := exec.DrainAll(ops)
	if err != nil {
		return nil, err
	}
	maxParallel = max(maxParallel, len(ops))

	blockRows := make([][][]types.Value, len(sp.blocks))
	for bi, bp := range sp.blocks {
		if blockRows[bi], err = bp.gather(perOp[starts[bi]:starts[bi+1]]); err != nil {
			return nil, err
		}
	}
	var rows [][]types.Value
	if len(sp.blocks) == 1 {
		rows = blockRows[0]
	} else {
		// UNION: set semantics across blocks, then the outer ORDER BY/LIMIT
		// over output columns — the unsharded planUnion tail.
		children := make([]exec.Operator, len(blockRows))
		for i, br := range blockRows {
			children[i] = &exec.ValuesOp{RowsData: br}
		}
		var root exec.Operator = &exec.Union{Children: children}
		root, err = planner.ApplyOutputOrderLimit(root, sp.sel, sp.columns)
		if err != nil {
			return nil, err
		}
		rows, err = exec.Drain(root)
		if err != nil {
			return nil, err
		}
	}
	return &engine.Result{Columns: sp.columns, Rows: rows, Parallel: maxParallel, Vectorized: vectorized}, nil
}

// runAnchored runs a statement whole on the first shard of its walk — a
// statement over replicated tables only, or an anchored union, through the
// engine's own anchor scan, SemiJoin and Distinct — and returns its answer as
// one batch the caller owns (nil when it has no rows). A shard's answer is
// the statement's answer unless an existence probe over a partitioned
// relation came back exhausted there: the rows that arm would add may sit in
// another shard's partition. Only then is the next shard asked, and the
// answers of the shards asked are united: their batches concatenated and
// deduplicated once. res takes the plans' parallel degree and whether they
// ran vectorized.
func (r *Router) runAnchored(sp *scatterPlan, cut Cut, res *engine.Result) (*exec.Batch, error) {
	res.Parallel = max(res.Parallel, 1)
	var asked []*exec.Batch
	drop := func() {
		for _, b := range asked {
			exec.PutBatch(b)
		}
	}
	for _, s := range sp.walk {
		pl, err := r.shards[s].Planner().PlanSelect(sp.sel, cut.Snaps[s])
		if err != nil {
			drop()
			return nil, err
		}
		b, err := exec.DrainBatch(pl.Root)
		if err != nil {
			drop()
			return nil, err
		}
		res.Parallel = max(res.Parallel, pl.Parallel)
		res.Vectorized = res.Vectorized || pl.Vectorized
		asked = append(asked, b)
		if !pl.PartitionExhausted() {
			break
		}
	}
	if len(asked) == 1 {
		return asked[0], nil
	}
	return exec.UnionBatches(asked), nil
}

// gather merges one block's per-shard results (in shard order) into the rows
// the unsharded engine would produce for that block.
func (bp *blockPlan) gather(perShard [][][]types.Value) ([][]types.Value, error) {
	if bp.agg != nil {
		return bp.agg.gather(perShard)
	}
	if len(perShard) == 1 && bp.stmt.Distinct && len(bp.sortKeys) == 0 {
		// One DISTINCT answer (a replicated block, a pruned shard set) is
		// already the block's row set.
		return perShard[0], nil
	}
	n := 0
	for _, rows := range perShard {
		n += len(rows)
	}
	all := make([][]types.Value, 0, n)
	for _, rows := range perShard {
		all = append(all, rows...)
	}
	var root exec.Operator = &exec.ValuesOp{RowsData: all}
	if len(bp.sortKeys) > 0 {
		root = &exec.Sort{Child: root, Keys: posSortKeys(bp.sortKeys)}
	}
	if hidden := bp.extendedWidth() > bp.nVisible; hidden {
		root = &exec.Project{Child: root, Exprs: identityEvals(bp.nVisible)}
	}
	if bp.distinct {
		root = &exec.Distinct{Child: root}
	}
	if bp.limit != nil {
		root = &exec.Limit{Child: root, N: *bp.limit}
	}
	return exec.Drain(root)
}

// extendedWidth is the per-shard tuple width including hidden ORDER BY
// columns.
func (bp *blockPlan) extendedWidth() int {
	w := bp.nVisible
	for _, k := range bp.sortKeys {
		if k.pos >= w {
			w = k.pos + 1
		}
	}
	return w
}

func posSortKeys(keys []posKey) []exec.SortKey {
	out := make([]exec.SortKey, len(keys))
	for i, k := range keys {
		pos := k.pos
		out[i] = exec.SortKey{
			Expr: func(row []types.Value) (types.Value, error) { return row[pos], nil },
			Desc: k.desc,
		}
	}
	return out
}

func identityEvals(n int) []exec.Evaluator {
	out := make([]exec.Evaluator, n)
	for i := range out {
		pos := i
		out[i] = func(row []types.Value) (types.Value, error) { return row[pos], nil }
	}
	return out
}

// partialAcc accumulates one partial column across shards. SUM stays on the
// exact int64 path until a float partial or an overflow demotes it — the
// same discipline the engine's aggregate accumulators use, so a sharded
// pure-INT SUM/AVG is bit-identical to the unsharded one.
type partialAcc struct {
	kind    partialKind
	seen    bool
	count   int64
	intOnly bool
	isum    int64
	fsum    float64
	val     types.Value // MIN/MAX carrier
}

func newPartialAcc(kind partialKind) partialAcc {
	return partialAcc{kind: kind, intOnly: true, val: types.Null}
}

// addInt64 adds with overflow detection (two same-sign operands whose sum
// flips sign overflowed).
func addInt64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func (a *partialAcc) merge(v types.Value) error {
	switch a.kind {
	case mergeCount:
		a.count += v.Int()
	case mergeSum:
		if v.IsNull() {
			return nil
		}
		a.seen = true
		if v.Kind() == types.KindInt && a.intOnly {
			if s, ok := addInt64(a.isum, v.Int()); ok {
				a.isum = s
				return nil
			}
		}
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("shard: SUM partial of kind %s", v.Kind())
		}
		if a.intOnly {
			a.intOnly = false
			a.fsum += float64(a.isum)
		}
		a.fsum += f
	case mergeMin:
		if !v.IsNull() && (a.val.IsNull() || types.Less(v, a.val)) {
			a.val = v
		}
	case mergeMax:
		if !v.IsNull() && (a.val.IsNull() || types.Less(a.val, v)) {
			a.val = v
		}
	}
	return nil
}

// value finalizes a direct (non-AVG) partial.
func (a *partialAcc) value() types.Value {
	switch a.kind {
	case mergeCount:
		return types.NewInt(a.count)
	case mergeSum:
		switch {
		case !a.seen:
			return types.Null
		case a.intOnly:
			return types.NewInt(a.isum)
		default:
			return types.NewFloat(a.fsum)
		}
	default:
		return a.val
	}
}

// gather merges per-shard partial-aggregate tables group by group, finalizes
// the original aggregate calls, then replays the finishGrouped tail (HAVING
// filter, ORDER BY, projection) plus the block's DISTINCT/LIMIT.
func (ag *aggGather) gather(perShard [][][]types.Value) ([][]types.Value, error) {
	type group struct {
		keys []types.Value
		accs []partialAcc
	}
	groups := make(map[string]*group)
	var order []*group
	var keyBuf []byte
	for _, rows := range perShard {
		for _, row := range rows {
			keyBuf = exec.AppendKey(keyBuf[:0], row[:ag.nKeys]...)
			g, ok := groups[string(keyBuf)]
			if !ok {
				g = &group{
					keys: append([]types.Value(nil), row[:ag.nKeys]...),
					accs: make([]partialAcc, len(ag.partials)),
				}
				for i, kind := range ag.partials {
					g.accs[i] = newPartialAcc(kind)
				}
				groups[string(keyBuf)] = g
				order = append(order, g)
			}
			for i := range ag.partials {
				if err := g.accs[i].merge(row[ag.nKeys+i]); err != nil {
					return nil, err
				}
			}
		}
	}
	// A global aggregate with no GROUP BY emits one row even over zero
	// input — but each shard already contributed exactly one partial row,
	// so the empty-groups case can only mean an all-keyed aggregation with
	// no matching rows anywhere: zero groups, zero output.
	final := make([][]types.Value, len(order))
	for gi, g := range order {
		row := make([]types.Value, ag.nKeys+len(ag.finals))
		copy(row, g.keys)
		for fi, fs := range ag.finals {
			if !fs.avg {
				row[ag.nKeys+fi] = g.accs[fs.partial].value()
				continue
			}
			sum, cnt := &g.accs[fs.sum], &g.accs[fs.cnt]
			switch {
			case cnt.count == 0:
				row[ag.nKeys+fi] = types.Null
			case sum.intOnly:
				row[ag.nKeys+fi] = types.NewFloat(float64(sum.isum) / float64(cnt.count))
			default:
				row[ag.nKeys+fi] = types.NewFloat(sum.fsum / float64(cnt.count))
			}
		}
		final[gi] = row
	}
	return ag.finishMerged(final)
}

// finishMerged runs the planner's grouped tail (planner.GroupedTail) over
// the merged [keys..., aggregates...] tuples — HAVING filter, sort,
// projection — then the block's DISTINCT and LIMIT, in the unsharded order.
func (ag *aggGather) finishMerged(final [][]types.Value) ([][]types.Value, error) {
	tail, err := planner.CompileGroupedTail(ag.sel, ag.items, ag.keySQL, func(fc *sqlparser.FuncCall) (int, error) {
		text := fc.SQL()
		for i, s := range ag.aggSQL {
			if s == text {
				return i, nil
			}
		}
		return 0, fmt.Errorf("shard: aggregate %s missing from gather plan", text)
	})
	if err != nil {
		return nil, err
	}
	root := tail.Over(&exec.ValuesOp{RowsData: final})
	if ag.sel.Distinct {
		root = &exec.Distinct{Child: root}
	}
	if ag.sel.Limit != nil {
		root = &exec.Limit{Child: root, N: *ag.sel.Limit}
	}
	return exec.Drain(root)
}
