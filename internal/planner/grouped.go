package planner

import (
	"fmt"
	"strings"

	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/types"
)

// Grouped reports whether a SELECT block aggregates: it has a GROUP BY or a
// HAVING clause, or an aggregate call anywhere in its select list.
func Grouped(sel *sqlparser.SelectStmt) bool {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return true
	}
	found := false
	for _, it := range sel.Items {
		sqlparser.WalkExpr(it.Expr, func(x sqlparser.Expr) bool {
			_, isCall := x.(*sqlparser.FuncCall)
			found = found || isCall
			return !found
		})
	}
	return found
}

// aggregate plans a grouped block's aggregation operator over input,
// producing [group keys..., aggregates...], and compiles the tail that
// finishes its groups. A bare-column key or aggregate argument also records
// its tuple offset (keyCols, argCols), so the batch aggregation reads it
// straight off the vector instead of through the evaluator — and zone-map
// stats can answer an aggregate over it.
func (p *Planner) aggregate(b *block, input exec.BatchOperator, t *template) (exec.BatchOperator, *GroupedTail, error) {
	tail, err := compileGroupedTail(b.sel, b.items)
	if err != nil {
		return nil, nil, err
	}
	keyEvals := make([]exec.Evaluator, len(tail.keys))
	for i, ge := range tail.keys {
		if keyEvals[i], err = exec.Compile(ge, b.layout); err != nil {
			return nil, nil, err
		}
	}
	specs := make([]exec.AggSpec, len(tail.calls))
	args := make([]sqlparser.Expr, len(tail.calls))
	for i, fc := range tail.calls {
		specs[i] = exec.AggSpec{Func: fc.Name, Star: fc.Star}
		if !fc.Star {
			if specs[i].Arg, err = exec.Compile(fc.Arg, b.layout); err != nil {
				return nil, nil, err
			}
			args[i] = fc.Arg
		}
	}
	keyCols, argCols := bareCols(tail.keys, b.layout), bareCols(args, b.layout)
	return p.buildAggRoot(input, keyEvals, keyCols, specs, argCols, t), tail, nil
}

// FinishGroups compiles the tail of a grouped block (Grouped) for groups
// merged across shards: exec.GatherGroups merges what the block's PlanGroups
// plans hand over, and the tail finishes the merged groups as PlanSelect's
// plan of the block finishes its own. Both number the aggregates alike.
// items is the block's select list with its stars expanded.
func FinishGroups(sel *sqlparser.SelectStmt, items []sqlparser.Expr) (*GroupedTail, error) {
	return compileGroupedTail(sel, items)
}

// groupKey resolves one GROUP BY expression: a bare select-list alias stands
// for that item's expression.
func groupKey(sel *sqlparser.SelectStmt, g sqlparser.Expr) sqlparser.Expr {
	if cr, ok := g.(*sqlparser.ColumnRef); ok && cr.Table == "" {
		for _, it := range sel.Items {
			if strings.EqualFold(it.Alias, cr.Column) && !it.Star {
				return it.Expr
			}
		}
	}
	return g
}

// GroupedTail is what a grouped block does over its groups, compiled
// against the [keys..., aggregates...] tuple each group is: HAVING, ORDER BY
// and the select items, then DISTINCT and LIMIT.
type GroupedTail struct {
	keys  []sqlparser.Expr      // GROUP BY, aliases resolved (groupKey)
	calls []*sqlparser.FuncCall // the distinct aggregate calls, in tuple order

	items    []exec.Evaluator
	having   exec.Evaluator
	order    []exec.SortKey
	distinct bool
	limit    *int64
}

// compileGroupedTail compiles a grouped block's tail over its groups. The
// aggregate calls it meets in the select items, HAVING and ORDER BY, in that
// order, are the group tuple's aggregates, identical calls sharing one: the
// one numbering the aggregation operator and the merged groups of a gather
// both follow. A column reference that is neither a grouping key nor inside
// an aggregate is rejected, per SQL.
func compileGroupedTail(sel *sqlparser.SelectStmt, items []sqlparser.Expr) (*GroupedTail, error) {
	t := &GroupedTail{items: make([]exec.Evaluator, len(items)), distinct: sel.Distinct, limit: sel.Limit}
	keySQL := make([]string, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		t.keys = append(t.keys, groupKey(sel, g))
		keySQL[i] = t.keys[i].SQL()
	}
	var callSQL []string
	at := func(pos int) exec.Evaluator {
		return func(row []types.Value) (types.Value, error) { return row[pos], nil }
	}
	hook := func(e sqlparser.Expr) (exec.Evaluator, bool, error) {
		text := e.SQL()
		if fc, ok := e.(*sqlparser.FuncCall); ok {
			i := 0
			for i < len(callSQL) && callSQL[i] != text {
				i++
			}
			if i == len(callSQL) {
				callSQL = append(callSQL, text)
				t.calls = append(t.calls, fc)
			}
			return at(len(keySQL) + i), true, nil
		}
		for i, k := range keySQL {
			if k == text {
				return at(i), true, nil
			}
		}
		if cr, ok := e.(*sqlparser.ColumnRef); ok {
			// Also accept an unqualified/qualified mismatch against a key
			// (e.g. GROUP BY A.user vs SELECT user).
			for i, k := range t.keys {
				if kcr, ok := k.(*sqlparser.ColumnRef); ok && strings.EqualFold(kcr.Column, cr.Column) {
					return at(i), true, nil
				}
			}
			return nil, false, fmt.Errorf("planner: column %q must appear in GROUP BY or inside an aggregate", cr.SQL())
		}
		return nil, false, nil
	}
	// The grouped tuple has no base-table columns; the hook must intercept
	// every column reference. An empty layout enforces that.
	groups := exec.NewLayout(nil)
	for i, it := range items {
		ev, err := exec.CompileWith(it, groups, hook)
		if err != nil {
			return nil, err
		}
		t.items[i] = ev
	}
	if sel.Having != nil {
		ev, err := exec.CompileWith(sel.Having, groups, hook)
		if err != nil {
			return nil, err
		}
		t.having = ev
	}
	for _, o := range sel.OrderBy {
		oe, err := orderExpr(sel, items, o.Expr)
		if err != nil {
			return nil, err
		}
		ev, err := exec.CompileWith(oe, groups, hook)
		if err != nil {
			return nil, err
		}
		t.order = append(t.order, exec.SortKey{Expr: ev, Desc: o.Desc})
	}
	return t, nil
}

// Over stacks the tail over the groups: HAVING as a filter kernel, the sort,
// the projection, DISTINCT and LIMIT. The tail is only read, so one
// compiled tail serves any number of concurrent runs.
func (t *GroupedTail) Over(groups exec.BatchOperator) exec.BatchOperator {
	if t.having != nil {
		groups = &exec.BatchFilter{Child: groups, Kernel: exec.EvalKernel(t.having)}
	}
	if len(t.order) > 0 {
		groups = &exec.BatchSort{Child: groups, Keys: t.order}
	}
	var root exec.BatchOperator = &exec.BatchProject{Child: groups, Exprs: t.items}
	if t.distinct {
		root = &exec.BatchDistinct{Child: root}
	}
	if t.limit != nil {
		root = &exec.BatchLimit{Child: root, N: *t.limit}
	}
	return root
}

// buildAggRoot picks the physical aggregation operator. Preference order:
// zone-map stat pushdown (global aggregates over a bare scan), morsel-
// parallel partial aggregation (input is a parallel scan), then columnar
// hash aggregation. All three produce identical results; only the amount of
// data touched and the degree of parallelism differ.
func (p *Planner) buildAggRoot(input exec.BatchOperator, keyEvals []exec.Evaluator, keyCols []int, specs []exec.AggSpec, argCols []int, t *template) exec.BatchOperator {
	if len(keyEvals) == 0 {
		if op := p.tryStatAgg(input, specs, argCols, t); op != nil {
			return op
		}
	}
	if ps, ok := input.(*exec.ParallelScan); ok && ps.Degree() > 1 {
		t.notes = append(t.notes, note{kind: noteCount, text: "parallel partial aggregation (%d workers)", n: ps.Degree()})
		return &exec.ParallelGroupAggregate{
			Scan: ps, Keys: keyEvals, KeyCols: keyCols, Specs: specs, ArgCols: argCols,
		}
	}
	t.notes = append(t.notes, note{text: "vectorized hash aggregation"})
	return &exec.BatchGroupAggregate{
		Src: input, Keys: keyEvals, KeyCols: keyCols, Specs: specs, ArgCols: argCols,
	}
}

// tryStatAgg recognizes a global aggregate over a bare table scan — the
// shape where zone-map stats can replace data access — and builds a
// StatAggScan for it, or returns nil when the plan or the specs disqualify.
// Every spec must be COUNT(*)/COUNT/MIN/MAX/SUM/AVG over a bare column, and
// the input must be an unjoined full-width scan whose predicate (if any)
// lives entirely in the pushed-down kernel + columnar filter.
func (p *Planner) tryStatAgg(input exec.BatchOperator, specs []exec.AggSpec, argCols []int, t *template) exec.BatchOperator {
	for si := range specs {
		switch specs[si].Func {
		case sqlparser.FuncCount, sqlparser.FuncMin, sqlparser.FuncMax,
			sqlparser.FuncSum, sqlparser.FuncAvg:
		default:
			return nil
		}
		if !specs[si].Star && argCols[si] < 0 {
			return nil
		}
	}
	op := &exec.StatAggScan{Specs: specs, ArgCols: argCols}
	switch n := input.(type) {
	case *exec.ParallelScan:
		if n.Offset != 0 || n.Width != n.Table.Schema.NumColumns() {
			return nil
		}
		op.Table = n.Table
		op.Kernel, op.SegFilter, op.Need = n.Kernel, n.SegFilter, n.Need
		op.Workers = n.Degree()
	case *exec.BatchScan:
		if n.Offset != 0 || n.Width != n.Table.Schema.NumColumns() {
			return nil
		}
		op.Table = n.Table
		op.Kernel, op.SegFilter, op.Need = n.Kernel, n.SegFilter, n.Need
		op.Workers = 1
	default:
		return nil
	}
	t.notes = append(t.notes, note{kind: noteStatAgg, op: op})
	return op
}
