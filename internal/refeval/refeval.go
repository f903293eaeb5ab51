// Package refeval is the deliberately naive reference evaluator the planner
// and executor property tests compare against: the cross product of every
// FROM table's visible rows, the compiled WHERE clause on each combination,
// the projection, then DISTINCT and UNION as set operations. It shares the
// expression compiler with the engine and nothing else — no access paths, no
// join order, no operators — so agreeing with it pins what a plan returns,
// not how.
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

// Eval evaluates a non-aggregate SELECT (possibly a UNION) and returns its
// rows rendered one string each ("v1|v2|…"), sorted. A lone block keeps
// duplicates unless it says DISTINCT; a UNION is a set.
func Eval(cat *storage.Catalog, snap Snapshot, sel *sqlparser.SelectStmt) ([]string, error) {
	if len(sel.OrderBy) > 0 || sel.Limit != nil {
		return nil, fmt.Errorf("refeval: ORDER BY / LIMIT unsupported")
	}
	out, err := evalBlock(cat, snap, sel)
	if err != nil {
		return nil, err
	}
	for _, u := range sel.Union {
		more, err := evalBlock(cat, snap, u)
		if err != nil {
			return nil, err
		}
		out = append(out, more...)
	}
	sort.Strings(out)
	if len(sel.Union) > 0 {
		out = dedupSorted(out)
	}
	return out, nil
}

func dedupSorted(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

func evalBlock(cat *storage.Catalog, snap Snapshot, sel *sqlparser.SelectStmt) ([]string, error) {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return nil, fmt.Errorf("refeval: aggregation unsupported")
	}
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
	var itemEvals []exec.Evaluator
	for _, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("refeval: star unsupported")
		}
		if _, agg := it.Expr.(*sqlparser.FuncCall); agg {
			return nil, fmt.Errorf("refeval: aggregation unsupported")
		}
		ev, err := exec.Compile(it.Expr, layout)
		if err != nil {
			return nil, err
		}
		itemEvals = append(itemEvals, ev)
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

	var out []string
	seen := map[string]bool{}
	for _, tup := range tuples {
		ok, err := exec.EvalPredicate(pred, tup)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		vals := make([]string, len(itemEvals))
		for i, ev := range itemEvals {
			v, err := ev(tup)
			if err != nil {
				return nil, err
			}
			vals[i] = v.String()
		}
		key := strings.Join(vals, "|")
		if sel.Distinct {
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		out = append(out, key)
	}
	return out, nil
}
