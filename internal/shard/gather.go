package shard

import (
	"fmt"
	"slices"
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
// the scatter-plan cache. Its answer, a batch, is boxed here.
func (r *Router) QueryStmtAt(sel *sqlparser.SelectStmt, sql string, cut Cut) (*engine.Result, error) {
	res := &engine.Result{}
	b, err := r.queryBatch(sel, sql, cut, res)
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
// caller owns (nil when there are no rows; engine.DB.QueryBatchAt).
func (r *Router) QueryBatchAt(sel *sqlparser.SelectStmt, sql string, cut Cut) (*exec.Batch, error) {
	return r.queryBatch(sel, sql, cut, &engine.Result{})
}

// queryBatch answers a statement as one batch: run whole on one shard
// (runAnchored) or scattered and gathered (executeScatter). res takes the
// columns and the plans' parallel degree.
func (r *Router) queryBatch(sel *sqlparser.SelectStmt, sql string, cut Cut, res *engine.Result) (*exec.Batch, error) {
	sp, err := r.plan(sel, sql, cut.Version)
	if err != nil {
		return nil, err
	}
	res.Columns, res.Vectorized = sp.columns, true
	if sp.walk != nil {
		return r.runAnchored(sp, cut, res)
	}
	return r.executeScatter(sp, cut, res)
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
// per-shard batches in deterministic shard order (the gather). Callers run
// a statement with a walk whole instead (runAnchored). res takes the
// parallel degree.
func (r *Router) executeScatter(sp *scatterPlan, cut Cut, res *engine.Result) (*exec.Batch, error) {
	var ops []exec.BatchOperator
	starts := make([]int, len(sp.blocks)+1)
	res.Parallel = 1
	for bi, bp := range sp.blocks {
		starts[bi] = len(ops)
		for _, s := range bp.shards {
			pl, err := r.shards[s].Planner().PlanSelect(bp.stmt, cut.Snaps[s])
			if err != nil {
				return nil, err
			}
			res.Parallel = max(res.Parallel, pl.Parallel)
			ops = append(ops, pl.Root)
		}
	}
	starts[len(sp.blocks)] = len(ops)
	perOp, err := exec.DrainAll(ops)
	if err != nil {
		return nil, err
	}
	res.Parallel = max(res.Parallel, len(ops))

	blocks := make([]*exec.Batch, len(sp.blocks))
	for bi, bp := range sp.blocks {
		if blocks[bi], err = bp.gather(perOp[starts[bi]:starts[bi+1]]); err != nil {
			for _, b := range append(blocks[:bi], perOp[starts[bi+1]:]...) {
				exec.PutBatch(b)
			}
			return nil, err
		}
	}
	if len(sp.blocks) == 1 {
		return blocks[0], nil
	}
	// UNION: set semantics across blocks, then the outer ORDER BY/LIMIT
	// over output columns — the unsharded planUnion tail.
	union := exec.Given(exec.UnionBatches(blocks))
	root, err := planner.ApplyOutputOrderLimit(union, sp.sel, sp.columns)
	if err != nil {
		union.Close()
		return nil, err
	}
	return exec.DrainBatch(root)
}

// runAnchored runs a statement whole on the first shard of its walk — a
// statement over replicated tables only, or an anchored union, through the
// engine's own anchor scan, SemiJoin and Distinct — and returns its answer as
// one batch the caller owns (nil when it has no rows). A shard's answer is
// the statement's answer unless an existence probe over a partitioned
// relation came back exhausted there: the rows that arm would add may sit in
// another shard's partition. Only then is the next shard asked, and the
// answers of the shards asked are united: their batches concatenated and
// deduplicated once. res takes the plans' parallel degree.
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

// gather merges one block's per-shard batches (in shard order; the inputs
// are recycled) into the batch the unsharded engine would produce for that
// block.
func (bp *blockPlan) gather(perShard []*exec.Batch) (*exec.Batch, error) {
	if bp.agg != nil {
		return bp.agg.gather(perShard)
	}
	all := exec.Concat(perShard)
	if len(perShard) == 1 && bp.stmt.Distinct && len(bp.sortKeys) == 0 {
		// One DISTINCT answer (a replicated block, a pruned shard set) is
		// already the block's row set.
		return all, nil
	}
	root := exec.Given(all)
	if len(bp.sortKeys) > 0 {
		keys := make([]exec.SortKey, len(bp.sortKeys))
		for i, k := range bp.sortKeys {
			keys[i] = exec.SortKey{Expr: column(k.pos), Desc: k.desc}
		}
		root = &exec.BatchSort{Child: root, Keys: keys}
	}
	if bp.extendedWidth() > bp.nVisible {
		// Strip the hidden ORDER BY columns.
		cols := make([]int, bp.nVisible)
		for i := range cols {
			cols[i] = i
		}
		root = &exec.BatchProject{Child: root, Exprs: make([]exec.Evaluator, bp.nVisible), Cols: cols}
	}
	if bp.distinct {
		root = &exec.BatchDistinct{Child: root}
	}
	if bp.limit != nil {
		root = &exec.BatchLimit{Child: root, N: *bp.limit}
	}
	return exec.DrainBatch(root)
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

// column evaluates to the tuple's value at pos.
func column(pos int) exec.Evaluator {
	return func(row []types.Value) (types.Value, error) { return row[pos], nil }
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

// gather merges per-shard partial-aggregate batches group by group (the
// inputs are recycled), finalizes the original aggregate calls, then replays
// the finishGrouped tail (HAVING filter, ORDER BY, projection) plus the
// block's DISTINCT/LIMIT.
func (ag *aggGather) gather(perShard []*exec.Batch) (*exec.Batch, error) {
	type group struct {
		keys []types.Value
		accs []partialAcc
	}
	groups := make(map[string]*group)
	var order []*group
	var keyBuf []byte
	keys := make([]types.Value, ag.nKeys)
	merge := func(b *exec.Batch) error {
		for _, pos := range b.Sel {
			for k := range keys {
				keys[k] = b.Cols[k].Value(pos)
			}
			keyBuf = exec.AppendKey(keyBuf[:0], keys...)
			g, ok := groups[string(keyBuf)]
			if !ok {
				g = &group{keys: slices.Clone(keys), accs: make([]partialAcc, len(ag.partials))}
				for i, kind := range ag.partials {
					g.accs[i] = newPartialAcc(kind)
				}
				groups[string(keyBuf)] = g
				order = append(order, g)
			}
			for i := range ag.partials {
				if err := g.accs[i].merge(b.Cols[ag.nKeys+i].Value(pos)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var err error
	for _, b := range perShard {
		if b != nil && err == nil {
			err = merge(b)
		}
		exec.PutBatch(b)
	}
	if err != nil {
		return nil, err
	}
	// A global aggregate with no GROUP BY emits one row even over zero
	// input — but each shard already contributed exactly one partial row,
	// so the empty-groups case can only mean an all-keyed aggregation with
	// no matching rows anywhere: zero groups, zero output.
	if len(order) == 0 {
		return nil, nil
	}
	final := exec.GetBatch()
	final.Shape(ag.nKeys+len(ag.finals), len(order))
	for c := range final.Cols {
		final.Cols[c] = final.NewVec(types.KindNull)
	}
	for _, g := range order {
		for k, v := range g.keys {
			final.Cols[k].Vals = append(final.Cols[k].Vals, v)
		}
		for fi, fs := range ag.finals {
			v := types.Null
			sum, cnt := &g.accs[fs.sum], &g.accs[fs.cnt]
			switch {
			case !fs.avg:
				v = g.accs[fs.partial].value()
			case cnt.count == 0:
			case sum.intOnly:
				v = types.NewFloat(float64(sum.isum) / float64(cnt.count))
			default:
				v = types.NewFloat(sum.fsum / float64(cnt.count))
			}
			final.Cols[ag.nKeys+fi].Vals = append(final.Cols[ag.nKeys+fi].Vals, v)
		}
	}
	final.SelectAll()
	return ag.finishMerged(final)
}

// finishMerged runs the planner's grouped tail (planner.GroupedTail) over
// the merged [keys..., aggregates...] tuples — HAVING filter, sort,
// projection — then the block's DISTINCT and LIMIT, in the unsharded order.
func (ag *aggGather) finishMerged(final *exec.Batch) (*exec.Batch, error) {
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
		exec.PutBatch(final)
		return nil, err
	}
	root := tail.Over(exec.Given(final))
	if ag.sel.Distinct {
		root = &exec.BatchDistinct{Child: root}
	}
	if ag.sel.Limit != nil {
		root = &exec.BatchLimit{Child: root, N: *ag.sel.Limit}
	}
	return exec.DrainBatch(root)
}
