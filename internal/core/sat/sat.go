// Package sat decides satisfiability of conjunctions of basic terms over
// column domains. The recency-query generator uses it two ways:
//
//   - Theorems 3 and 4 require the regular-column-only predicates (Pr) to be
//     satisfiable over the cross product of the column domains for the
//     generated recency query to be the exact minimum. Sat here upgrades the
//     arm from "upper bound" to "minimum".
//   - Corollaries 2 and 6: an unsatisfiable disjunct contributes the empty
//     set of relevant sources, so its arm is dropped entirely.
//
// Computing satisfiability exactly is NP-hard in general (that is the
// paper's Theorem 2), so this checker is deliberately three-valued: Sat and
// Unsat are proven; everything else is Unknown, which downstream code treats
// as "upper bound only". Unknown never compromises completeness.
//
// Each single-column term is read once into a constraint.Constraint, the
// form the executor's kernels read too, so sat and the executor agree on
// what a term keeps. A column's verdict intersects its terms' constraints
// with the column's domain, NULL included (every column can hold NULL): an
// empty intersection is Unsat, and a non-empty one with every term read is
// Sat. Only a LIKE pattern that is not a plain prefix (the residual) is
// beyond the form; there, witness strings built from the patterns decide
// Sat, and Unknown is left when none passes.
package sat

import (
	"strings"

	"trac/internal/constraint"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// Result is a three-valued satisfiability verdict.
type Result uint8

// Verdicts.
const (
	Unknown Result = iota
	Sat
	Unsat
)

// String renders the verdict.
func (r Result) String() string {
	switch r {
	case Sat:
		return "satisfiable"
	case Unsat:
		return "unsatisfiable"
	default:
		return "unknown"
	}
}

// CheckRegular decides satisfiability of a conjunction of regular-column
// selection terms for one relation, over the relation's column domains.
// Terms must each reference only columns of the bound table (the classifier
// guarantees this for Pr).
func CheckRegular(terms []sqlparser.Expr, binding string, tbl *storage.Table) Result {
	if len(terms) == 0 {
		return Sat // an empty conjunction is TRUE
	}
	byCol := make(map[int][]sqlparser.Expr)
	hasComplex := false
	for _, term := range terms {
		cols := referencedColumns(term, binding, tbl)
		if len(cols) != 1 {
			hasComplex = true
			continue
		}
		byCol[cols[0]] = append(byCol[cols[0]], term)
	}
	allSat := !hasComplex
	for col, colTerms := range byCol {
		switch checkColumn(colTerms, binding, tbl, col) {
		case Unsat:
			// One impossible column makes the whole conjunction impossible,
			// regardless of unresolved complex terms.
			return Unsat
		case Unknown:
			allSat = false
		}
	}
	if allSat {
		return Sat
	}
	return Unknown
}

// CheckConstants evaluates column-free terms (e.g. 1 = 2). Unsat if any is
// provably false; Sat if all are provably true.
func CheckConstants(terms []sqlparser.Expr) Result {
	allTrue := true
	for _, term := range terms {
		v, ok := evalConstant(term)
		if !ok {
			allTrue = false
			continue
		}
		if v.Kind() == types.KindBool && !v.Bool() {
			return Unsat
		}
		if v.IsNull() {
			// UNKNOWN filters every row, same as FALSE for WHERE purposes.
			return Unsat
		}
		if v.Kind() != types.KindBool {
			allTrue = false
		}
	}
	if allTrue {
		return Sat
	}
	return Unknown
}

// referencedColumns lists the distinct column indexes of tbl referenced by
// the term.
func referencedColumns(term sqlparser.Expr, binding string, tbl *storage.Table) []int {
	set := make(map[int]bool)
	sqlparser.WalkExpr(term, func(e sqlparser.Expr) bool {
		if cr, ok := e.(*sqlparser.ColumnRef); ok {
			if cr.Table == "" || strings.EqualFold(cr.Table, binding) {
				if ci := tbl.Schema.ColumnIndex(cr.Column); ci >= 0 {
					set[ci] = true
				}
			}
		}
		return true
	})
	out := make([]int, 0, len(set))
	for ci := range set {
		out = append(out, ci)
	}
	return out
}

// checkColumn decides satisfiability of the terms constraining one column.
func checkColumn(terms []sqlparser.Expr, binding string, tbl *storage.Table, col int) Result {
	column := tbl.Schema.Columns[col]
	all, exact := constraint.OfDomain(column.Domain, column.Kind)
	var residuals []constraint.Constraint
	for _, term := range terms {
		c, ok := constraint.Read(term, func(cr *sqlparser.ColumnRef) (types.Kind, bool) {
			return column.Kind, (cr.Table == "" || strings.EqualFold(cr.Table, binding)) && tbl.Schema.ColumnIndex(cr.Column) == col
		})
		if !ok {
			exact = false
			continue
		}
		if c.Like != "" {
			residuals = append(residuals, c)
		}
		all = all.Intersect(c)
	}
	switch {
	case !all.Null && len(all.Points)+len(all.Ivs) == 0:
		return Unsat
	case !exact:
		return Unknown
	case !all.Range || len(residuals) == 0:
		// Points were filtered through every residual exactly.
		return Sat
	}
	for _, w := range witnesses(residuals) {
		if all.Contains(w) && allContain(residuals, w) {
			return Sat
		}
	}
	return Unknown
}

func allContain(cs []constraint.Constraint, v types.Value) bool {
	for _, c := range cs {
		if !c.Contains(v) {
			return false
		}
	}
	return true
}

// witnesses instantiates each residual's LIKE pattern: '%' as "" and as
// "w", '_' as "a".
func witnesses(residuals []constraint.Constraint) []types.Value {
	var out []types.Value
	for _, c := range residuals {
		for _, fill := range []string{"", "w"} {
			var sb strings.Builder
			for i := 0; i < len(c.Like); i++ {
				switch c.Like[i] {
				case '%':
					sb.WriteString(fill)
				case '_':
					sb.WriteByte('a')
				default:
					sb.WriteByte(c.Like[i])
				}
			}
			out = append(out, types.NewString(sb.String()))
		}
	}
	return out
}

// evalConstant evaluates a column-free term.
func evalConstant(term sqlparser.Expr) (types.Value, bool) {
	switch n := term.(type) {
	case *sqlparser.Literal:
		return n.Val, true
	case *sqlparser.Comparison:
		l, ok1 := n.Left.(*sqlparser.Literal)
		r, ok2 := n.Right.(*sqlparser.Literal)
		if !ok1 || !ok2 {
			return types.Null, false
		}
		if l.Val.IsNull() || r.Val.IsNull() {
			return types.Null, true
		}
		cmp, err := types.Compare(l.Val, r.Val)
		if err != nil {
			return types.Null, false
		}
		var b bool
		switch n.Op {
		case sqlparser.CmpEq:
			b = cmp == 0
		case sqlparser.CmpNe:
			b = cmp != 0
		case sqlparser.CmpLt:
			b = cmp < 0
		case sqlparser.CmpLe:
			b = cmp <= 0
		case sqlparser.CmpGt:
			b = cmp > 0
		case sqlparser.CmpGe:
			b = cmp >= 0
		}
		return types.NewBool(b), true
	default:
		return types.Null, false
	}
}
