// Package refeval is the deliberately naive reference evaluator the planner
// and executor property tests compare against: the cross product of every
// FROM table's visible rows, the compiled WHERE clause on each combination,
// GROUP BY as a map from key to the combinations that share it with every
// aggregate recomputed from them, HAVING, the projection, ORDER BY as a
// stable sort, then DISTINCT, UNION as set operations and LIMIT as a prefix.
// It shares the expression compiler with the engine and nothing else — no
// access paths, no join order, no operators, no accumulators — so agreeing
// with it pins what a plan returns, not how.
package refeval

import (
	"fmt"
	"sort"
	"strings"

	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// Snapshot is the visibility test rows are read under.
type Snapshot interface {
	Visible(*storage.Row) bool
}

// row is one output tuple and, under ORDER BY, its sort key.
type row struct {
	vals, keys []types.Value
}

// Eval evaluates a SELECT (possibly a UNION) and returns its rows rendered
// one string each ("v1|v2|…"): in ORDER BY order when the statement has one,
// sorted otherwise. A lone block keeps duplicates unless it says DISTINCT; a
// UNION is a set. LIMIT needs an ORDER BY, without which it has no one
// answer.
func Eval(cat *storage.Catalog, snap Snapshot, sel *sqlparser.SelectStmt) ([]string, error) {
	if sel.Limit != nil && len(sel.OrderBy) == 0 {
		return nil, fmt.Errorf("refeval: LIMIT without ORDER BY")
	}
	var rows []row
	if len(sel.Union) == 0 {
		var err error
		if rows, err = evalBlock(cat, snap, sel, sel.OrderBy); err != nil {
			return nil, err
		}
	} else {
		// The blocks of a UNION carry no ORDER BY of their own; the
		// statement's orders their union by output column.
		head := *sel
		head.OrderBy, head.Limit = nil, nil
		for _, b := range append([]*sqlparser.SelectStmt{&head}, sel.Union...) {
			more, err := evalBlock(cat, snap, b, nil)
			if err != nil {
				return nil, err
			}
			rows = append(rows, more...)
		}
		rows = distinct(rows)
		if err := outputKeys(rows, sel); err != nil {
			return nil, err
		}
	}
	if len(sel.OrderBy) == 0 {
		out := render(rows)
		sort.Strings(out)
		return out, nil
	}
	sort.SliceStable(rows, func(i, j int) bool { return before(rows[i].keys, rows[j].keys, sel.OrderBy) })
	if sel.Distinct && len(sel.Union) == 0 {
		rows = distinct(rows)
	}
	if sel.Limit != nil && int64(len(rows)) > *sel.Limit {
		rows = rows[:*sel.Limit]
	}
	return render(rows), nil
}

// before orders two sort keys: NULL first ascending, last descending.
func before(a, b []types.Value, order []sqlparser.OrderItem) bool {
	for k, o := range order {
		switch {
		case types.Less(a[k], b[k]):
			return !o.Desc
		case types.Less(b[k], a[k]):
			return o.Desc
		}
	}
	return false
}

// outputKeys sets the sort key of rows of a UNION: each ORDER BY item is a
// 1-based position or the name of an output column of the first block.
func outputKeys(rows []row, sel *sqlparser.SelectStmt) error {
	pos := make([]int, len(sel.OrderBy))
	for k, o := range sel.OrderBy {
		pos[k] = -1
		switch e := o.Expr.(type) {
		case *sqlparser.Literal:
			if e.Val.Kind() == types.KindInt {
				pos[k] = int(e.Val.Int()) - 1
			}
		case *sqlparser.ColumnRef:
			for i, it := range sel.Items {
				if strings.EqualFold(itemName(it), e.Column) {
					pos[k] = i
					break
				}
			}
		}
		if pos[k] < 0 || pos[k] >= len(sel.Items) {
			return fmt.Errorf("refeval: ORDER BY over a UNION must name an output column")
		}
	}
	for i := range rows {
		rows[i].keys = make([]types.Value, len(pos))
		for k, p := range pos {
			rows[i].keys[k] = rows[i].vals[p]
		}
	}
	return nil
}

// itemName is an output column's name: its alias, else the column it reads.
func itemName(it sqlparser.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok {
		return cr.Column
	}
	return it.Expr.SQL()
}

// distinct keeps the first occurrence of each tuple.
func distinct(rows []row) []row {
	seen := map[string]bool{}
	out := rows[:0]
	for _, r := range rows {
		if k := exec.RowKey(r.vals); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func render(rows []row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]string, len(r.vals))
		for j, v := range r.vals {
			vals[j] = v.String()
		}
		out[i] = strings.Join(vals, "|")
	}
	return out
}

// evalBlock evaluates one SELECT block: its output tuples, each with the
// values of order — evaluated over the tuple's combination (or group),
// except that a 1-based position or a bare select-list alias stands for that
// output column. A block without ORDER BY applies its DISTINCT here.
func evalBlock(cat *storage.Catalog, snap Snapshot, sel *sqlparser.SelectStmt, order []sqlparser.OrderItem) ([]row, error) {
	var bindings []exec.Binding
	for _, ref := range sel.From {
		tbl, err := cat.Get(ref.Name)
		if err != nil {
			return nil, err
		}
		bindings = append(bindings, exec.Binding{Name: ref.Binding(), Table: tbl})
	}
	layout := exec.NewLayout(bindings)
	var pred exec.Evaluator
	if sel.Where != nil {
		var err error
		pred, err = exec.Compile(sel.Where, layout)
		if err != nil {
			return nil, err
		}
	}

	// Cross product of visible rows. Iterate the LAYOUT's bindings: they
	// carry the computed offsets (the local slice does not).
	tuples := [][]types.Value{make([]types.Value, layout.Width())}
	for _, b := range layout.Bindings {
		var next [][]types.Value
		for _, base := range tuples {
			for _, r := range b.Table.Rows() {
				if !snap.Visible(r) {
					continue
				}
				tup := make([]types.Value, layout.Width())
				copy(tup, base)
				copy(tup[b.Offset:b.Offset+len(r.Values)], r.Values)
				next = append(next, tup)
			}
		}
		tuples = next
	}
	var kept [][]types.Value
	for _, tup := range tuples {
		ok, err := exec.EvalPredicate(pred, tup)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, tup)
		}
	}

	items := make([]sqlparser.Expr, len(sel.Items))
	for i, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("refeval: star unsupported")
		}
		items[i] = it.Expr
	}
	// Every ORDER BY item is a position into the output (>= 0) or an
	// expression of its own.
	orderPos := make([]int, len(order))
	var orderExprs []sqlparser.Expr
	for k, o := range order {
		orderPos[k] = -1
		if p := aliasOrPosition(sel, o.Expr); p >= 0 {
			orderPos[k] = p
		} else {
			orderExprs = append(orderExprs, o.Expr)
		}
	}

	var out []row
	emit := func(vals, extra []types.Value) {
		r := row{vals: vals}
		if len(order) > 0 {
			r.keys = make([]types.Value, len(order))
			for k, p := range orderPos {
				if p >= 0 {
					r.keys[k] = vals[p]
				} else {
					r.keys[k], extra = extra[0], extra[1:]
				}
			}
		}
		out = append(out, r)
	}
	if grouped(sel) {
		groups, err := groupBy(sel, layout, kept)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			keep := true
			if sel.Having != nil {
				v, err := g.eval(sel.Having)
				if err != nil {
					return nil, err
				}
				keep = v.Kind() == types.KindBool && v.Bool()
			}
			if !keep {
				continue
			}
			vals, err := g.evalAll(items)
			if err != nil {
				return nil, err
			}
			extra, err := g.evalAll(orderExprs)
			if err != nil {
				return nil, err
			}
			emit(vals, extra)
		}
	} else {
		itemEvals, err := compileAll(items, layout)
		if err != nil {
			return nil, err
		}
		orderEvals, err := compileAll(orderExprs, layout)
		if err != nil {
			return nil, err
		}
		for _, tup := range kept {
			vals, err := evalAll(itemEvals, tup)
			if err != nil {
				return nil, err
			}
			extra, err := evalAll(orderEvals, tup)
			if err != nil {
				return nil, err
			}
			emit(vals, extra)
		}
	}
	if sel.Distinct && len(order) == 0 {
		out = distinct(out)
	}
	return out, nil
}

// aliasOrPosition returns the output column an ORDER BY item names by
// 1-based position or bare alias, or -1.
func aliasOrPosition(sel *sqlparser.SelectStmt, e sqlparser.Expr) int {
	if lit, ok := e.(*sqlparser.Literal); ok && lit.Val.Kind() == types.KindInt {
		return int(lit.Val.Int()) - 1
	}
	if cr, ok := e.(*sqlparser.ColumnRef); ok && cr.Table == "" {
		for i, it := range sel.Items {
			if strings.EqualFold(it.Alias, cr.Column) {
				return i
			}
		}
	}
	return -1
}

func compileAll(exprs []sqlparser.Expr, layout *exec.Layout) ([]exec.Evaluator, error) {
	evs := make([]exec.Evaluator, len(exprs))
	for i, e := range exprs {
		var err error
		if evs[i], err = exec.Compile(e, layout); err != nil {
			return nil, err
		}
	}
	return evs, nil
}

func evalAll(evs []exec.Evaluator, tup []types.Value) ([]types.Value, error) {
	vals := make([]types.Value, len(evs))
	for i, ev := range evs {
		var err error
		if vals[i], err = ev(tup); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// grouped reports whether a block aggregates: it has a GROUP BY or a HAVING
// clause, or an aggregate call anywhere in its select list.
func grouped(sel *sqlparser.SelectStmt) bool {
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

// group is the combinations that share one GROUP BY key.
type group struct {
	layout *exec.Layout
	keySQL []string
	keys   []types.Value
	tuples [][]types.Value
}

// groupBy partitions the combinations by their GROUP BY key (a bare
// select-list alias stands for its item); without GROUP BY there is one
// group, even over no combination.
func groupBy(sel *sqlparser.SelectStmt, layout *exec.Layout, tuples [][]types.Value) ([]*group, error) {
	keyExprs := make([]sqlparser.Expr, len(sel.GroupBy))
	keySQL := make([]string, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		keyExprs[i] = g
		if cr, ok := g.(*sqlparser.ColumnRef); ok && cr.Table == "" {
			for _, it := range sel.Items {
				if strings.EqualFold(it.Alias, cr.Column) {
					keyExprs[i] = it.Expr
				}
			}
		}
		keySQL[i] = keyExprs[i].SQL()
	}
	evs, err := compileAll(keyExprs, layout)
	if err != nil {
		return nil, err
	}
	var groups []*group
	byKey := map[string]*group{}
	if len(keyExprs) == 0 {
		groups = append(groups, &group{layout: layout})
	}
	for _, tup := range tuples {
		keys, err := evalAll(evs, tup)
		if err != nil {
			return nil, err
		}
		g := byKey[exec.RowKey(keys)]
		if len(keyExprs) == 0 {
			g = groups[0]
		} else if g == nil {
			g = &group{layout: layout, keySQL: keySQL, keys: keys}
			byKey[exec.RowKey(keys)] = g
			groups = append(groups, g)
		}
		g.tuples = append(g.tuples, tup)
	}
	return groups, nil
}

func (g *group) evalAll(exprs []sqlparser.Expr) ([]types.Value, error) {
	vals := make([]types.Value, len(exprs))
	for i, e := range exprs {
		var err error
		if vals[i], err = g.eval(e); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// eval evaluates an expression over the group: an aggregate call from every
// combination in it, a GROUP BY key as the group's key value, and any other
// column as it is in the group's first combination.
func (g *group) eval(e sqlparser.Expr) (types.Value, error) {
	ev, err := exec.CompileWith(e, g.layout, func(x sqlparser.Expr) (exec.Evaluator, bool, error) {
		if fc, ok := x.(*sqlparser.FuncCall); ok {
			v, err := g.aggregate(fc)
			return func([]types.Value) (types.Value, error) { return v, err }, true, nil
		}
		for i, k := range g.keySQL {
			if k == x.SQL() {
				v := g.keys[i]
				return func([]types.Value) (types.Value, error) { return v, nil }, true, nil
			}
		}
		return nil, false, nil
	})
	if err != nil {
		return types.Null, err
	}
	first := make([]types.Value, g.layout.Width())
	if len(g.tuples) > 0 {
		first = g.tuples[0]
	}
	return ev(first)
}

// aggregate computes one aggregate call over the group from scratch: COUNT
// counts, SUM adds integers exactly (in float64 once a FLOAT appears), AVG
// divides that sum by the count, MIN and MAX compare; NULL arguments are
// skipped, and SUM, AVG, MIN and MAX over none are NULL.
func (g *group) aggregate(fc *sqlparser.FuncCall) (types.Value, error) {
	if fc.Star {
		return types.NewInt(int64(len(g.tuples))), nil
	}
	arg, err := exec.Compile(fc.Arg, g.layout)
	if err != nil {
		return types.Null, err
	}
	var vals []types.Value
	for _, tup := range g.tuples {
		v, err := arg(tup)
		if err != nil {
			return types.Null, err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	if fc.Name == sqlparser.FuncCount {
		return types.NewInt(int64(len(vals))), nil
	}
	if len(vals) == 0 {
		return types.Null, nil
	}
	switch fc.Name {
	case sqlparser.FuncMin, sqlparser.FuncMax:
		best := vals[0]
		for _, v := range vals[1:] {
			if fc.Name == sqlparser.FuncMin && types.Less(v, best) || fc.Name == sqlparser.FuncMax && types.Less(best, v) {
				best = v
			}
		}
		return best, nil
	case sqlparser.FuncSum, sqlparser.FuncAvg:
		var isum int64
		var fsum float64
		exact := true
		for _, v := range vals {
			if exact && v.Kind() == types.KindInt {
				isum += v.Int()
				continue
			}
			f, ok := v.AsFloat()
			if !ok {
				return types.Null, fmt.Errorf("refeval: %s over %s", fc.Name, v.Kind())
			}
			if exact {
				exact, fsum = false, float64(isum)
			}
			fsum += f
		}
		switch {
		case fc.Name == sqlparser.FuncAvg && exact:
			return types.NewFloat(float64(isum) / float64(len(vals))), nil
		case fc.Name == sqlparser.FuncAvg:
			return types.NewFloat(fsum / float64(len(vals))), nil
		case exact:
			return types.NewInt(isum), nil
		}
		return types.NewFloat(fsum), nil
	}
	return types.Null, fmt.Errorf("refeval: unsupported aggregate %s", fc.Name)
}
