package planner

import (
	"fmt"
	"strings"

	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/types"
)

// finishGrouped builds the aggregation tail of a plan: the aggregation
// operator producing [group keys..., aggregates...], then the GroupedTail
// over its groups. A bare-column key or aggregate argument also records its
// tuple offset (keyCols, argCols), so the batch aggregation reads it straight
// off the vector instead of through the evaluator — and zone-map stats can
// answer an aggregate over it.
func (p *Planner) finishGrouped(sel *sqlparser.SelectStmt, input exec.BatchOperator, layout *exec.Layout, items []sqlparser.Expr, t *template) (exec.BatchOperator, error) {
	keyEvals := make([]exec.Evaluator, len(sel.GroupBy))
	keyCols := make([]int, len(sel.GroupBy))
	keySQL := make([]string, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		ge := GroupKey(sel, g)
		ev, err := exec.Compile(ge, layout)
		if err != nil {
			return nil, err
		}
		keyEvals[i], keyCols[i], keySQL[i] = ev, bareCol(ge, layout), ge.SQL()
	}

	// Aggregate specs are discovered while the tail compiles; identical calls
	// share one accumulator.
	var specs []exec.AggSpec
	var specSQL []string
	var argCols []int
	addSpec := func(fc *sqlparser.FuncCall) (int, error) {
		key := fc.SQL()
		for i, s := range specSQL {
			if s == key {
				return i, nil
			}
		}
		spec := exec.AggSpec{Func: fc.Name, Star: fc.Star}
		col := -1
		if !fc.Star {
			arg, err := exec.Compile(fc.Arg, layout)
			if err != nil {
				return 0, err
			}
			spec.Arg, col = arg, bareCol(fc.Arg, layout)
		}
		specs = append(specs, spec)
		specSQL = append(specSQL, key)
		argCols = append(argCols, col)
		return len(specs) - 1, nil
	}
	tail, err := CompileGroupedTail(sel, items, keySQL, addSpec)
	if err != nil {
		return nil, err
	}
	return tail.Over(p.buildAggRoot(input, keyEvals, keyCols, specs, argCols, t)), nil
}

// GroupKey resolves one GROUP BY expression: a bare select-list alias stands
// for that item's expression.
func GroupKey(sel *sqlparser.SelectStmt, g sqlparser.Expr) sqlparser.Expr {
	if cr, ok := g.(*sqlparser.ColumnRef); ok && cr.Table == "" {
		for _, it := range sel.Items {
			if strings.EqualFold(it.Alias, cr.Column) && !it.Star {
				return it.Expr
			}
		}
	}
	return g
}

// GroupedTail is what a grouped block evaluates over its groups, compiled
// against the [keys..., aggregates...] tuple each group is: the select
// items, HAVING and the ORDER BY keys.
type GroupedTail struct {
	items  []exec.Evaluator
	having exec.Evaluator
	order  []exec.SortKey
}

// CompileGroupedTail compiles a grouped block's select items, HAVING and
// ORDER BY over its groups. keySQL is the canonical text of each GROUP BY
// key (see GroupKey); agg returns the position among the aggregates of an
// aggregate call — the planner files a new accumulator, the shard gather
// looks up the partials it merged. A column reference that is neither a
// grouping key nor inside an aggregate is rejected, per SQL.
func CompileGroupedTail(sel *sqlparser.SelectStmt, items []sqlparser.Expr, keySQL []string, agg func(*sqlparser.FuncCall) (int, error)) (*GroupedTail, error) {
	at := func(pos int) exec.Evaluator {
		return func(row []types.Value) (types.Value, error) { return row[pos], nil }
	}
	hook := func(e sqlparser.Expr) (exec.Evaluator, bool, error) {
		if fc, ok := e.(*sqlparser.FuncCall); ok {
			idx, err := agg(fc)
			if err != nil {
				return nil, false, err
			}
			return at(len(keySQL) + idx), true, nil
		}
		text := e.SQL()
		for i, k := range keySQL {
			if k == text {
				return at(i), true, nil
			}
		}
		if cr, ok := e.(*sqlparser.ColumnRef); ok {
			// Also accept an unqualified/qualified mismatch against a key
			// (e.g. GROUP BY A.user vs SELECT user).
			for i, k := range keySQL {
				if kr, err := sqlparser.ParseExpr(k); err == nil {
					if kcr, ok := kr.(*sqlparser.ColumnRef); ok && strings.EqualFold(kcr.Column, cr.Column) {
						return at(i), true, nil
					}
				}
			}
			return nil, false, fmt.Errorf("planner: column %q must appear in GROUP BY or inside an aggregate", cr.SQL())
		}
		return nil, false, nil
	}
	// The grouped tuple has no base-table columns; the hook must intercept
	// every column reference. An empty layout enforces that.
	groups := exec.NewLayout(nil)
	t := &GroupedTail{items: make([]exec.Evaluator, len(items))}
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

// Over stacks the tail over the groups: HAVING as a filter kernel, the sort
// and the projection.
func (t *GroupedTail) Over(groups exec.BatchOperator) exec.BatchOperator {
	if t.having != nil {
		groups = &exec.BatchFilter{Child: groups, Kernel: exec.EvalKernel(t.having)}
	}
	if len(t.order) > 0 {
		groups = &exec.BatchSort{Child: groups, Keys: t.order}
	}
	return &exec.BatchProject{Child: groups, Exprs: t.items}
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
