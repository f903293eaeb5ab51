package planner

import (
	"fmt"
	"strings"

	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/types"
)

// finishGrouped builds the aggregation tail of a plan: a hash
// GroupAggregate producing [group keys..., aggregates...], an optional
// HAVING filter, the ORDER BY sort, and the final projection. Select items,
// HAVING and ORDER BY are compiled against the grouped intermediate tuple
// via a compile hook that maps GROUP BY expressions and aggregate calls to
// intermediate positions; a bare column that is neither grouped nor inside
// an aggregate is rejected, per SQL semantics.
func (p *Planner) finishGrouped(sel *sqlparser.SelectStmt, input exec.Operator, layout *exec.Layout, items []sqlparser.Expr, notes *[]string) (exec.Operator, error) {
	// Group keys: evaluator over base rows + canonical text for matching.
	// A bare-column key additionally records its tuple offset (keyCols) so
	// the batch aggregation path reads it straight out of the selection
	// vector instead of through the evaluator.
	keyEvals := make([]exec.Evaluator, len(sel.GroupBy))
	keyCols := make([]int, len(sel.GroupBy))
	keySQL := make([]string, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		// A bare alias in GROUP BY resolves to its select-list expression.
		ge := g
		if cr, ok := g.(*sqlparser.ColumnRef); ok && cr.Table == "" {
			for j, it := range sel.Items {
				if strings.EqualFold(it.Alias, cr.Column) && !it.Star {
					ge = sel.Items[j].Expr
					break
				}
			}
		}
		ev, err := exec.Compile(ge, layout)
		if err != nil {
			return nil, err
		}
		keyEvals[i] = ev
		keyCols[i] = -1
		if cr, ok := ge.(*sqlparser.ColumnRef); ok {
			if off, err := layout.Resolve(cr.Table, cr.Column); err == nil {
				keyCols[i] = off
			}
		}
		keySQL[i] = ge.SQL()
	}

	// Aggregate specs are discovered lazily while compiling items/HAVING/
	// ORDER BY; identical calls share one accumulator.
	var specs []exec.AggSpec
	var specSQL []string
	// argCols parallels specs: a bare-column aggregate argument records its
	// tuple offset, enabling the typed batch kernels (which read that
	// vector) and zone-map stat pushdown; -1 keeps the evaluator path.
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
			spec.Arg = arg
			if cr, ok := fc.Arg.(*sqlparser.ColumnRef); ok {
				if off, err := layout.Resolve(cr.Table, cr.Column); err == nil {
					col = off
				}
			}
		}
		specs = append(specs, spec)
		specSQL = append(specSQL, key)
		argCols = append(argCols, col)
		return len(specs) - 1, nil
	}

	nKeys := len(keyEvals)
	hook := func(e sqlparser.Expr) (exec.Evaluator, bool, error) {
		if fc, ok := e.(*sqlparser.FuncCall); ok {
			idx, err := addSpec(fc)
			if err != nil {
				return nil, false, err
			}
			pos := nKeys + idx
			return func(row []types.Value) (types.Value, error) { return row[pos], nil }, true, nil
		}
		text := e.SQL()
		for i, k := range keySQL {
			if k == text {
				pos := i
				return func(row []types.Value) (types.Value, error) { return row[pos], nil }, true, nil
			}
		}
		if cr, ok := e.(*sqlparser.ColumnRef); ok {
			// Also accept an unqualified/qualified mismatch against a key
			// (e.g. GROUP BY A.user vs SELECT user).
			for i, k := range keySQL {
				if kr, err := sqlparser.ParseExpr(k); err == nil {
					if kcr, ok := kr.(*sqlparser.ColumnRef); ok && strings.EqualFold(kcr.Column, cr.Column) {
						pos := i
						return func(row []types.Value) (types.Value, error) { return row[pos], nil }, true, nil
					}
				}
			}
			return nil, false, fmt.Errorf("planner: column %q must appear in GROUP BY or inside an aggregate", cr.SQL())
		}
		return nil, false, nil
	}

	// The grouped layout has no base-table columns; hooks must intercept
	// every column reference. An empty layout enforces that.
	groupedLayout := exec.NewLayout(nil)

	itemEvals := make([]exec.Evaluator, len(items))
	for i, it := range items {
		ev, err := exec.CompileWith(it, groupedLayout, hook)
		if err != nil {
			return nil, err
		}
		itemEvals[i] = ev
	}
	var having exec.Evaluator
	if sel.Having != nil {
		ev, err := exec.CompileWith(sel.Having, groupedLayout, hook)
		if err != nil {
			return nil, err
		}
		having = ev
	}
	var sortKeys []exec.SortKey
	for _, o := range sel.OrderBy {
		oe := o.Expr
		if lit, ok := oe.(*sqlparser.Literal); ok && lit.Val.Kind() == types.KindInt {
			pos := int(lit.Val.Int()) - 1
			if pos < 0 || pos >= len(items) {
				return nil, fmt.Errorf("planner: ORDER BY position %d out of range", pos+1)
			}
			oe = items[pos]
		} else if cr, ok := oe.(*sqlparser.ColumnRef); ok && cr.Table == "" {
			for i, it := range sel.Items {
				if strings.EqualFold(it.Alias, cr.Column) {
					oe = items[i]
					break
				}
			}
		}
		ev, err := exec.CompileWith(oe, groupedLayout, hook)
		if err != nil {
			return nil, err
		}
		sortKeys = append(sortKeys, exec.SortKey{Expr: ev, Desc: o.Desc})
	}

	root := p.buildAggRoot(input, keyEvals, keyCols, specs, argCols, notes)
	if having != nil {
		root = &exec.Filter{Child: root, Pred: having}
	}
	if len(sortKeys) > 0 {
		root = &exec.Sort{Child: root, Keys: sortKeys}
	}
	return &exec.Project{Child: root, Exprs: itemEvals}, nil
}

// buildAggRoot picks the physical aggregation operator. Preference order:
// zone-map stat pushdown (global aggregates over a bare scan), morsel-
// parallel partial aggregation (input is a parallel scan), vectorized hash
// aggregation (input bridges to a batch pipeline), then the row operator.
// All four produce identical results; only the amount of data touched and
// the degree of parallelism differ.
func (p *Planner) buildAggRoot(input exec.Operator, keyEvals []exec.Evaluator, keyCols []int, specs []exec.AggSpec, argCols []int, notes *[]string) exec.Operator {
	if p.DisableVectorized {
		return &exec.GroupAggregate{Child: input, Keys: keyEvals, Specs: specs}
	}
	if len(keyEvals) == 0 && !p.DisableStatPushdown {
		if op := p.tryStatAgg(input, specs, argCols, notes); op != nil {
			return op
		}
	}
	if ps, ok := input.(*exec.ParallelScan); ok && ps.Degree() > 1 {
		*notes = append(*notes, fmt.Sprintf("parallel partial aggregation (%d workers)", ps.Degree()))
		return &exec.ParallelGroupAggregate{
			Scan: ps, Keys: keyEvals, KeyCols: keyCols, Specs: specs, ArgCols: argCols,
		}
	}
	if src, ok := exec.AsBatch(input); ok {
		*notes = append(*notes, "vectorized hash aggregation")
		return &exec.BatchGroupAggregate{
			Src: src, Keys: keyEvals, KeyCols: keyCols, Specs: specs, ArgCols: argCols,
		}
	}
	return &exec.GroupAggregate{Child: input, Keys: keyEvals, Specs: specs}
}

// tryStatAgg recognizes a global aggregate over a bare table scan — the
// shape where zone-map stats can replace data access — and builds a
// StatAggScan for it, or returns nil when the plan or the specs disqualify.
// Every spec must be COUNT(*)/COUNT/MIN/MAX/SUM/AVG over a bare column, and
// the input must be an unjoined full-width scan whose predicate (if any)
// lives entirely in the pushed-down kernel + columnar filter.
func (p *Planner) tryStatAgg(input exec.Operator, specs []exec.AggSpec, argCols []int, notes *[]string) exec.Operator {
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
		if n.Filter != nil || n.Offset != 0 || n.Width != n.Table.Schema.NumColumns() {
			return nil
		}
		op.Table, op.Snap = n.Table, n.Snap
		op.Kernel, op.SegFilter, op.Need = n.Kernel, n.SegFilter, n.Need
		op.Workers, op.MorselSize = n.Degree(), n.MorselSize
	case *exec.RowFromBatch:
		bs, ok := n.Src.(*exec.BatchScan)
		if !ok || bs.Offset != 0 || bs.Width != bs.Table.Schema.NumColumns() {
			return nil
		}
		op.Table, op.Snap = bs.Table, bs.Snap
		op.Kernel, op.SegFilter, op.Need = bs.Kernel, bs.SegFilter, bs.Need
		op.Workers = 1
	default:
		return nil
	}
	statSegs, scanSegs, pruned, tailRows := op.Classify()
	*notes = append(*notes, fmt.Sprintf(
		"agg: %d segments answered from stats, %d scanned, %d pruned, tail %d rows",
		statSegs, scanSegs, pruned, tailRows))
	return op
}
