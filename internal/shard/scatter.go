package shard

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"trac/internal/planner"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// scatterPlan is the cached decomposition of one SELECT across the shard
// set: per UNION block, the shard set it must touch, the statement each
// shard runs, and the gather recipe that reassembles exactly the rows the
// unsharded engine would produce. Decompositions depend only on the SQL and
// the catalog, so they are cached under the cut's coherent catalog version.
type scatterPlan struct {
	sel     *sqlparser.SelectStmt
	blocks  []*blockPlan
	columns []string

	// walk is set for a statement that runs whole on one shard
	// (anchoredWalk): the shards it runs on, one at a time, in this order.
	// nil: the blocks scatter and gather one by one.
	walk []int
}

// replicated reports whether every block reads replicated tables only: shard
// 0 then holds every row the statement reads.
func (sp *scatterPlan) replicated() bool {
	for _, bp := range sp.blocks {
		if !bp.replicated {
			return false
		}
	}
	return true
}

// blockPlan is the scatter/gather shape of one SELECT block.
type blockPlan struct {
	shards     []int // ascending shard set
	pruned     int   // shards eliminated by the partition-key bound
	replicated bool  // references no partitioned table: one shard suffices
	stmt       *sqlparser.SelectStmt

	// tail is set for a grouped block (planner.Grouped): every shard plans
	// stmt up to its aggregation (planner.PlanGroups), the gather merges
	// their group tables (exec.GatherGroups) and tail finishes the merged
	// groups.
	tail *planner.GroupedTail

	// Non-aggregate gather shape: the per-shard statement may carry hidden
	// trailing items for ORDER BY expressions that are not output columns;
	// the gather sorts the extended tuples, strips to nVisible, then applies
	// DISTINCT and LIMIT in the unsharded planner's order.
	nVisible int
	sortKeys []posKey
	distinct bool
	limit    *int64

	// anchor is the lower-cased name of the relation a DISTINCT-anchored
	// block (planner.AnchorShape) without ORDER BY or LIMIT draws its output
	// from, when that relation is replicated and no predicate ties a
	// partitioned relation to it; "" otherwise.
	anchor string
}

// posKey sorts gathered tuples by an absolute position.
type posKey struct {
	pos  int
	desc bool
}

// decompose splits a parsed SELECT into per-block scatter plans, mirroring
// the unsharded planner's planUnion/planBlock split.
func (r *Router) decompose(sel *sqlparser.SelectStmt) (*scatterPlan, error) {
	sp := &scatterPlan{sel: sel}
	blocks := []*sqlparser.SelectStmt{sel}
	if len(sel.Union) > 0 {
		head := *sel
		head.Union = nil
		head.OrderBy = nil
		head.Limit = nil
		blocks = append([]*sqlparser.SelectStmt{&head}, sel.Union...)
	}
	for i, b := range blocks {
		bp, columns, err := r.decomposeBlock(b)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			sp.columns = columns
		} else if len(columns) != len(sp.columns) {
			return nil, fmt.Errorf("planner: UNION blocks have different arity (%d vs %d)",
				len(sp.columns), len(columns))
		}
		sp.blocks = append(sp.blocks, bp)
	}
	sp.walk = anchoredWalk(sp)
	return sp, nil
}

// anchoredWalk decides whether a statement runs whole on one shard, and
// returns the shards it runs on, one at a time, in this order; nil for a
// statement whose blocks scatter. A statement whose every block reads
// replicated tables only, or touches one and the same shard, runs on that
// shard — shard 0 when there is none. So does a statement whose every block
// is anchored on one replicated relation (blockPlan.anchor), with no ORDER
// BY or LIMIT of its own: every shard of a cut holds the whole anchor, and a
// partition only decides whether an arm's existence probe finds a row. Its
// walk is the shards its blocks over a partitioned relation touch.
func anchoredWalk(sp *scatterPlan) []int {
	if s, ok := oneShard(sp); ok {
		return []int{s}
	}
	blocks := sp.blocks
	if len(sp.sel.OrderBy) > 0 || sp.sel.Limit != nil {
		return nil
	}
	var walk []int
	for _, bp := range blocks {
		if bp.anchor == "" || bp.anchor != blocks[0].anchor {
			return nil
		}
		if !bp.replicated {
			walk = append(walk, bp.shards...)
		}
	}
	slices.Sort(walk)
	return slices.Compact(walk)
}

// oneShard reports the one shard that holds every row a statement reads:
// its blocks read replicated tables, which every shard holds, or touch that
// shard only. It is shard 0 when no block touches a partition.
func oneShard(sp *scatterPlan) (int, bool) {
	s := -1
	for _, bp := range sp.blocks {
		switch {
		case bp.replicated:
		case len(bp.shards) != 1 || (s >= 0 && bp.shards[0] != s):
			return 0, false
		default:
			s = bp.shards[0]
		}
	}
	return max(s, 0), true
}

// decomposeBlock computes one block's shard set and per-shard statement.
func (r *Router) decomposeBlock(b *sqlparser.SelectStmt) (*blockPlan, []string, error) {
	bp := &blockPlan{}

	// Constant SELECT: no FROM, no data — any one shard answers it.
	if len(b.From) == 0 {
		bp.shards, bp.replicated = []int{0}, true
		bp.stmt = b
		bp.nVisible = len(b.Items)
		columns := make([]string, len(b.Items))
		for i, it := range b.Items {
			columns[i] = planner.ItemName(it)
		}
		return bp, columns, nil
	}

	if err := r.shardSet(b, bp); err != nil {
		return nil, nil, err
	}

	items, columns, err := r.expandItems(b)
	if err != nil {
		return nil, nil, err
	}
	if planner.Grouped(b) {
		// Each shard runs the block up to its aggregation; the copy gives
		// that plan a template slot of its own.
		stmt := *b
		bp.stmt = &stmt
		bp.tail, err = planner.FinishGroups(b, items)
		return bp, columns, err
	}
	if err := r.decomposePlain(b, bp, items); err != nil {
		return nil, nil, err
	}
	return bp, columns, nil
}

// shardSet computes which shards a block must touch. A block over only
// replicated tables runs on shard 0 (every shard holds the full data); a
// block over one partitioned table scatters to the shards its partition-key
// bound hashes to, or to all shards when the WHERE clause carries no such
// bound. Two partitioned tables in one block would need co-partitioned or
// shuffled joins, which the router does not implement.
func (r *Router) shardSet(b *sqlparser.SelectStmt, bp *blockPlan) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cat := r.shards[0].Catalog()
	type partRef struct {
		binding string
		tbl     *storage.Table
		col     int
	}
	var prefs []partRef
	for _, ref := range b.From {
		col, ok := r.part[strings.ToLower(ref.Name)]
		if !ok {
			continue
		}
		tbl, err := cat.Get(ref.Name)
		if err != nil {
			return err
		}
		prefs = append(prefs, partRef{binding: ref.Binding(), tbl: tbl, col: tbl.Schema.ColumnIndex(col)})
	}
	switch len(prefs) {
	case 0:
		bp.shards, bp.replicated = []int{0}, true
		return nil
	case 1:
	default:
		return fmt.Errorf("shard: query joins %d partitioned tables; only one partitioned table per block is supported", len(prefs))
	}
	p := prefs[0]
	keys, ok := planner.PartitionKeys(b.Where, p.binding, p.tbl, p.col)
	if !ok {
		bp.shards = make([]int, len(r.shards))
		for i := range bp.shards {
			bp.shards[i] = i
		}
		return nil
	}
	set := make(map[int]bool, len(keys))
	for _, k := range keys {
		set[r.ShardOf(k)] = true
	}
	for s := range set {
		bp.shards = append(bp.shards, s)
	}
	sort.Ints(bp.shards)
	bp.pruned = len(r.shards) - len(bp.shards)
	return nil
}

// decomposePlain builds the per-shard statement and gather shape for a
// non-aggregate block.
func (r *Router) decomposePlain(b *sqlparser.SelectStmt, bp *blockPlan, items []sqlparser.Expr) error {
	bp.nVisible = len(items)
	bp.distinct = b.Distinct
	bp.limit = b.Limit

	shardSel := &sqlparser.SelectStmt{
		Distinct: b.Distinct,
		Items:    b.Items,
		From:     b.From,
		Where:    b.Where,
		Limit:    b.Limit,
	}
	if len(b.OrderBy) == 0 {
		// Without ORDER BY a per-shard LIMIT is a valid prefix of each
		// shard's arbitrary order; the gather truncates the concatenation.
		bp.stmt = shardSel
		if b.Distinct && b.Limit == nil {
			return r.anchorGather(b, bp)
		}
		return nil
	}

	// Resolve ORDER BY keys to output positions, mirroring planBlock:
	// 1-based positions and bare aliases resolve to select items; anything
	// else becomes a hidden trailing item each shard also returns.
	var hidden []sqlparser.SelectItem
	for _, o := range b.OrderBy {
		oe := o.Expr
		if lit, ok := oe.(*sqlparser.Literal); ok && lit.Val.Kind() == types.KindInt {
			pos := int(lit.Val.Int()) - 1
			if pos < 0 || pos >= len(items) {
				return fmt.Errorf("planner: ORDER BY position %d out of range", pos+1)
			}
			bp.sortKeys = append(bp.sortKeys, posKey{pos: pos, desc: o.Desc})
			continue
		}
		if cr, ok := oe.(*sqlparser.ColumnRef); ok && cr.Table == "" {
			alias := -1
			for i, it := range b.Items {
				if strings.EqualFold(it.Alias, cr.Column) {
					alias = i
					break
				}
			}
			if alias >= 0 {
				bp.sortKeys = append(bp.sortKeys, posKey{pos: alias, desc: o.Desc})
				continue
			}
		}
		// An ORDER BY expression textually identical to an output item
		// already travels with the row.
		match := -1
		for i, it := range items {
			if it.SQL() == oe.SQL() {
				match = i
				break
			}
		}
		if match >= 0 {
			bp.sortKeys = append(bp.sortKeys, posKey{pos: match, desc: o.Desc})
			continue
		}
		hidden = append(hidden, sqlparser.SelectItem{Expr: oe})
		bp.sortKeys = append(bp.sortKeys, posKey{pos: len(items) + len(hidden) - 1, desc: o.Desc})
	}

	if len(hidden) > 0 {
		shardSel.Items = append(append([]sqlparser.SelectItem(nil), b.Items...), hidden...)
		if b.Distinct {
			// Hidden columns would change DISTINCT's grouping; dedup (and
			// therefore LIMIT, which applies post-dedup) move to the gather.
			shardSel.Distinct = false
			shardSel.Limit = nil
		}
	}
	if shardSel.Limit != nil {
		// Keep the per-shard LIMIT as a top-k: each shard's ordered prefix
		// is a superset of its contribution to the global top-k.
		shardSel.OrderBy = b.OrderBy
	}
	bp.stmt = shardSel
	return nil
}

// anchorGather records the relation a DISTINCT-anchored block draws its
// output from (blockPlan.anchor). The anchor must be replicated — its rows are
// then the same on every shard of a cut — and every partitioned relation
// existence-only: untied, it decides only whether the block has rows at all.
func (r *Router) anchorGather(b *sqlparser.SelectStmt, bp *blockPlan) error {
	shape, err := r.shards[0].Planner().AnchorShape(b)
	if err != nil || shape == nil {
		return err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	anchor := strings.ToLower(b.From[shape.Anchor].Name)
	if _, partitioned := r.part[anchor]; partitioned {
		return nil
	}
	for i, ref := range b.From {
		if _, partitioned := r.part[strings.ToLower(ref.Name)]; partitioned && shape.Tied[i] {
			return nil
		}
	}
	bp.anchor = anchor
	return nil
}

// expandItems resolves stars against shard 0's catalog (all shards share one
// schema) and returns per-output-column expressions plus column names — the
// shard-side mirror of the planner's expandItems.
func (r *Router) expandItems(b *sqlparser.SelectStmt) ([]sqlparser.Expr, []string, error) {
	cat := r.shards[0].Catalog()
	var items []sqlparser.Expr
	var columns []string
	for _, it := range b.Items {
		if !it.Star {
			items = append(items, it.Expr)
			columns = append(columns, planner.ItemName(it))
			continue
		}
		for _, ref := range b.From {
			if it.Table != "" && !strings.EqualFold(it.Table, ref.Binding()) {
				continue
			}
			tbl, err := cat.Get(ref.Name)
			if err != nil {
				return nil, nil, err
			}
			for _, col := range tbl.Schema.Columns {
				items = append(items, &sqlparser.ColumnRef{Table: ref.Binding(), Column: col.Name})
				columns = append(columns, col.Name)
			}
		}
	}
	if len(items) == 0 {
		return nil, nil, fmt.Errorf("planner: empty select list")
	}
	return items, columns, nil
}
