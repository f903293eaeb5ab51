// Package classify organizes the basic terms of a conjunctive query
// predicate per relation, exactly as Notations 4–7 of the TRAC paper:
//
//	Ps  — data source only selection predicates (reference only c_s of R_i)
//	Pr  — regular column only selection predicates
//	Pm  — mixed selection predicates (c_s and a regular column of R_i)
//	Js  — join predicates whose R_i columns are only c_s
//	Jrm — join predicates touching at least one regular column of R_i
//	Po  — every predicate of Q not referencing R_i at all
//
// The recency-query generator keeps Ps (substituted onto Heartbeat), Js
// (likewise substituted) and Po in the per-relation recency arm; Pr, Pm and
// Jrm are dropped, which is what makes the arm an upper bound (Corollary 5)
// and, when Pm/Jrm are absent and Pr is satisfiable, the exact minimum
// (Theorems 3 and 4).
package classify

import (
	"fmt"
	"strings"

	"trac/internal/sqlparser"
	"trac/internal/storage"
)

// Relation is one FROM-list entry of the user query.
type Relation struct {
	Binding string // the name expressions refer to it by (alias or name)
	Table   *storage.Table
}

// SourceColumn returns the relation's data source column name, or "" when
// the table is not a monitored table.
func (r Relation) SourceColumn() string {
	if r.Table.Schema.SourceColumn < 0 {
		return ""
	}
	return r.Table.Schema.Columns[r.Table.Schema.SourceColumn].Name
}

// PerRelation is the classification of a conjunct from one relation's
// point of view.
type PerRelation struct {
	Ps  []sqlparser.Expr
	Pr  []sqlparser.Expr
	Pm  []sqlparser.Expr
	Js  []sqlparser.Expr
	Jrm []sqlparser.Expr
	Po  []sqlparser.Expr
}

// Classification is the per-relation breakdown of one conjunct plus the
// terms that reference no relation at all (constant terms such as 1 = 2).
type Classification struct {
	Relations []PerRelation
	Constants []sqlparser.Expr
}

// WithChecks implements the paper's §3.4 treatment of predicate-form
// constraints: "we can take a user query and append the conjunction of
// predicates defining such constraints. This converts Q to an equivalent
// expression Q′." Every CHECK constraint of every monitored relation in
// the query is conjoined onto the WHERE clause (see Checks). The engine
// rejects only a row that makes a CHECK FALSE, and a NULL makes most checks
// UNKNOWN, so a check is conjoined as "not FALSE" (see notFalse): stored
// rows always satisfy that, so Q′ ≡ Q on legal instances — while the
// *potential tuples* quantified over by the relevance definitions are now
// restricted to legal ones, increasing the precision of the
// relevant-source set. A check whose "not FALSE" form is not stated that
// way is not conjoined and is returned in dropped: the potential tuples are
// then not restricted by it, and a claim of minimality cannot stand.
func WithChecks(where sqlparser.Expr, rels []Relation) (_ sqlparser.Expr, dropped []sqlparser.Expr) {
	terms := []sqlparser.Expr{}
	if where != nil {
		terms = append(terms, where)
	}
	for _, c := range Checks(rels) {
		if nf, ok := notFalse(c, false); ok {
			terms = append(terms, nf)
		} else {
			dropped = append(dropped, c)
		}
	}
	return sqlparser.AndAll(terms...), dropped
}

// Checks returns the CHECK constraints of the relations, with unqualified
// (or table-name-qualified) column references rewritten to the relation's
// binding.
func Checks(rels []Relation) []sqlparser.Expr {
	var out []sqlparser.Expr
	for _, rel := range rels {
		for _, raw := range rel.Table.Schema.Checks {
			e, ok := raw.(sqlparser.Expr)
			if !ok {
				continue
			}
			clone := sqlparser.CloneExpr(e)
			sqlparser.WalkExpr(clone, func(x sqlparser.Expr) bool {
				if cr, ok := x.(*sqlparser.ColumnRef); ok {
					if cr.Table == "" || strings.EqualFold(cr.Table, rel.Table.Name) {
						cr.Table = rel.Binding
					}
				}
				return true
			})
			out = append(out, clone)
		}
	}
	return out
}

// notFalse states "e is not FALSE" (or, when neg, "NOT e is not FALSE") as
// a predicate that is TRUE exactly there. AND, OR and NOT distribute over
// it; IS [NOT] NULL is never UNKNOWN; and a comparison, BETWEEN, LIKE or IN
// over columns, arithmetic and non-NULL literals is UNKNOWN exactly when a
// column it reads is NULL, so its form is the term OR'd with each of those
// columns IS NULL. ok is false for anything else, a NULL literal included.
func notFalse(e sqlparser.Expr, neg bool) (sqlparser.Expr, bool) {
	switch n := e.(type) {
	case *sqlparser.Logical:
		l, ok1 := notFalse(n.Left, neg)
		r, ok2 := notFalse(n.Right, neg)
		op := n.Op
		if neg { // De Morgan
			op = sqlparser.LogicOr
			if n.Op == sqlparser.LogicOr {
				op = sqlparser.LogicAnd
			}
		}
		return &sqlparser.Logical{Op: op, Left: l, Right: r}, ok1 && ok2
	case *sqlparser.Not:
		return notFalse(n.Expr, !neg)
	case *sqlparser.IsNull:
		return &sqlparser.IsNull{Expr: n.Expr, Negated: n.Negated != neg}, true
	}
	var operands []sqlparser.Expr
	var term sqlparser.Expr
	switch n := e.(type) {
	case *sqlparser.Comparison:
		operands = []sqlparser.Expr{n.Left, n.Right}
		op := n.Op
		if neg {
			op = op.Negate()
		}
		term = &sqlparser.Comparison{Op: op, Left: n.Left, Right: n.Right}
	case *sqlparser.Between:
		operands = []sqlparser.Expr{n.Expr, n.Lo, n.Hi}
		term = &sqlparser.Between{Expr: n.Expr, Lo: n.Lo, Hi: n.Hi, Negated: n.Negated != neg}
	case *sqlparser.Like:
		operands = []sqlparser.Expr{n.Expr, n.Pattern}
		term = &sqlparser.Like{Expr: n.Expr, Pattern: n.Pattern, Negated: n.Negated != neg}
	case *sqlparser.In:
		for _, it := range n.List {
			if _, ok := it.(*sqlparser.Literal); !ok {
				return nil, false
			}
		}
		operands = append([]sqlparser.Expr{n.Expr}, n.List...)
		term = &sqlparser.In{Expr: n.Expr, List: n.List, Negated: n.Negated != neg}
	default:
		return nil, false
	}
	ors := []sqlparser.Expr{term}
	seen := map[string]bool{}
	for _, o := range operands {
		ok := true
		sqlparser.WalkExpr(o, func(x sqlparser.Expr) bool {
			switch x := x.(type) {
			case *sqlparser.ColumnRef:
				if key := strings.ToLower(x.SQL()); !seen[key] {
					seen[key] = true
					ors = append(ors, &sqlparser.IsNull{Expr: x})
				}
			case *sqlparser.Literal:
				ok = ok && !x.Val.IsNull()
			case *sqlparser.Arith:
			default:
				ok = false
			}
			return ok
		})
		if !ok {
			return nil, false
		}
	}
	return sqlparser.OrAll(ors...), true
}

// termRefs describes which relations a term touches and how.
type termRefs struct {
	// sourceCols[i] / regularCols[i]: the term references the source /
	// a regular column of relation i.
	sourceCols  map[int]bool
	regularCols map[int]bool
}

func (tr termRefs) relations() map[int]bool {
	out := make(map[int]bool)
	for i := range tr.sourceCols {
		out[i] = true
	}
	for i := range tr.regularCols {
		out[i] = true
	}
	return out
}

// Conjunct classifies the basic terms of one conjunct against the query's
// relations.
func Conjunct(terms []sqlparser.Expr, rels []Relation) (*Classification, error) {
	cls := &Classification{Relations: make([]PerRelation, len(rels))}
	for _, term := range terms {
		refs, err := analyze(term, rels)
		if err != nil {
			return nil, err
		}
		touched := refs.relations()
		if len(touched) == 0 {
			cls.Constants = append(cls.Constants, term)
			// A constant term belongs to Po of every relation: it doesn't
			// reference R_i but constrains Q.
			for i := range rels {
				cls.Relations[i].Po = append(cls.Relations[i].Po, term)
			}
			continue
		}
		for i := range rels {
			pr := &cls.Relations[i]
			if !touched[i] {
				pr.Po = append(pr.Po, term)
				continue
			}
			selection := len(touched) == 1
			src, reg := refs.sourceCols[i], refs.regularCols[i]
			switch {
			case selection && src && !reg:
				pr.Ps = append(pr.Ps, term)
			case selection && !src && reg:
				pr.Pr = append(pr.Pr, term)
			case selection: // src && reg
				pr.Pm = append(pr.Pm, term)
			case src && !reg:
				pr.Js = append(pr.Js, term)
			default: // join touching a regular column of R_i
				pr.Jrm = append(pr.Jrm, term)
			}
		}
	}
	return cls, nil
}

// analyze resolves every column reference in a term to (relation,
// source/regular). Unqualified names are resolved across all relations;
// ambiguity is an error, mirroring SQL name resolution.
func analyze(term sqlparser.Expr, rels []Relation) (termRefs, error) {
	tr := termRefs{sourceCols: make(map[int]bool), regularCols: make(map[int]bool)}
	var firstErr error
	sqlparser.WalkExpr(term, func(e sqlparser.Expr) bool {
		cr, ok := e.(*sqlparser.ColumnRef)
		if !ok {
			return true
		}
		rel, col, err := resolve(cr, rels)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return false
		}
		if col == rels[rel].Table.Schema.SourceColumn {
			tr.sourceCols[rel] = true
		} else {
			tr.regularCols[rel] = true
		}
		return true
	})
	return tr, firstErr
}

func resolve(cr *sqlparser.ColumnRef, rels []Relation) (int, int, error) {
	if cr.Table != "" {
		for i, r := range rels {
			if strings.EqualFold(r.Binding, cr.Table) {
				ci := r.Table.Schema.ColumnIndex(cr.Column)
				if ci < 0 {
					return 0, 0, fmt.Errorf("classify: relation %q has no column %q", cr.Table, cr.Column)
				}
				return i, ci, nil
			}
		}
		return 0, 0, fmt.Errorf("classify: unknown relation %q", cr.Table)
	}
	found, foundCol := -1, -1
	for i, r := range rels {
		if ci := r.Table.Schema.ColumnIndex(cr.Column); ci >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("classify: column %q is ambiguous", cr.Column)
			}
			found, foundCol = i, ci
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("classify: unknown column %q", cr.Column)
	}
	return found, foundCol, nil
}
