package shard

import (
	"fmt"
	"strings"

	"trac/internal/core/report"
	"trac/internal/engine"
	"trac/internal/exec"
	"trac/internal/planner"
	"trac/internal/sqlparser"
	"trac/internal/txn"
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
		note := planner.ShardNote(1, len(r.shards), len(r.shards)-len(sp.walk))
		switch {
		case sp.replicated():
			note = fmt.Sprintf("shards: 1 of %d, replicated", len(r.shards))
		case len(sp.walk) > 1:
			note += ", anchored union on one shard (next shard only while a partitioned existence probe is exhausted)"
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
		plan, err := bp.plan(r.shards[first].Planner(), cut.Snaps[first])
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "shard %d plan:\n%s\n", first, plan.Describe())
	}
	return strings.TrimRight(sb.String(), "\n"), nil
}

// executeScatter runs a statement's blocks one after another, each
// scattered to its shards and gathered (runBlock); a UNION then unites the
// blocks' answers. Callers run a statement with a walk whole instead
// (runAnchored). res takes the parallel degree.
func (r *Router) executeScatter(sp *scatterPlan, cut Cut, res *engine.Result) (*exec.Batch, error) {
	res.Parallel = 1
	blocks := make([]*exec.Batch, len(sp.blocks))
	for bi, bp := range sp.blocks {
		var err error
		if blocks[bi], err = r.runBlock(bp, cut, res); err != nil {
			for _, b := range blocks[:bi] {
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

// plan plans the block's per-shard statement on one shard: up to its
// aggregation for a grouped block, whole for any other.
func (bp *blockPlan) plan(pl *planner.Planner, snap txn.Snapshot) (*planner.Plan, error) {
	if bp.tail != nil {
		return pl.PlanGroups(bp.stmt, snap)
	}
	return pl.PlanSelect(bp.stmt, snap)
}

// runBlock plans the block on each of its shards under the cut's snapshots,
// runs the plans concurrently (the scatter) and merges their answers in
// shard order (the gather): a grouped block's group tables merged and
// finished by its tail, any other block's batches by gather.
func (r *Router) runBlock(bp *blockPlan, cut Cut, res *engine.Result) (*exec.Batch, error) {
	parts := make([]exec.BatchOperator, len(bp.shards))
	for i, s := range bp.shards {
		pl, err := bp.plan(r.shards[s].Planner(), cut.Snaps[s])
		if err != nil {
			return nil, err
		}
		res.Parallel = max(res.Parallel, pl.Parallel)
		parts[i] = pl.Root
	}
	res.Parallel = max(res.Parallel, len(parts))
	if bp.tail != nil {
		groups, err := exec.GatherGroups(parts)
		if err != nil {
			return nil, err
		}
		return exec.DrainBatch(bp.tail.Over(exec.Given(groups)))
	}
	perShard, err := exec.DrainAll(parts)
	if err != nil {
		return nil, err
	}
	return bp.gather(perShard)
}

// runAnchored runs a statement whole on the first shard of its walk — a
// statement whose blocks read replicated tables or one shard's partition, or
// an anchored union through the engine's own anchor scan, SemiJoin and
// Distinct — and returns its answer as
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

// gather merges a block's per-shard batches (in shard order; the inputs are
// recycled) into the batch the unsharded engine would produce for that
// block. A grouped block merges its group tables instead (runBlock).
func (bp *blockPlan) gather(perShard []*exec.Batch) (*exec.Batch, error) {
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
