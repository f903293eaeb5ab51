// Package recgen generates recency queries: given a user SPJ query, it
// derives the query over the Heartbeat table whose answer is the set of
// data sources "relevant" to the user query (paper §4).
//
// The construction follows the paper exactly:
//
//   - The WHERE clause is converted to DNF; by Corollary 1 the relevant set
//     is the union over disjuncts.
//   - Within a disjunct, by Corollary 4 the set is the union over relations
//     of the sources relevant *via* each relation.
//   - Per relation R_i, the arm is
//     π_{sid}( σ_{Ps' ∧ Js' ∧ Po} ( Heartbeat × R_1 × … × R_{i-1} ×
//     R_{i+1} × … × R_n ) )
//     where Ps'/Js' substitute R_i's data source column with the Heartbeat
//     sid column (Theorem 4; Theorem 3 is the n=1 case). Pr, Pm and Jrm are
//     dropped — that is what makes the arm an upper bound (Corollary 5).
//   - The arm is the exact minimum when Pm and Jrm are empty and Pr is
//     satisfiable over the column domains (Theorems 3/4); satisfiability is
//     delegated to the sat package. Provably unsatisfiable disjuncts are
//     dropped entirely (Corollaries 2/6).
//
// The generator emits an ordinary SQL string (a UNION of arms) that the
// engine plans and runs like any user query, mirroring the paper's
// PostgreSQL prototype, where the PL/pgSQL table function built the recency
// query as text. Emitting text keeps the "query parsing and generation"
// cost measurable, which Figure 1/2 of the paper break out separately.
package recgen

import (
	"fmt"
	"strings"

	"trac/internal/core/classify"
	"trac/internal/core/dnf"
	"trac/internal/core/sat"
	"trac/internal/sqlparser"
	"trac/internal/storage"
)

// Options configures the Heartbeat schema names.
type Options struct {
	HeartbeatTable string // default "Heartbeat"
	SidColumn      string // default "sid"
	RecencyColumn  string // default "recency"
}

func (o Options) withDefaults() Options {
	if o.HeartbeatTable == "" {
		o.HeartbeatTable = "Heartbeat"
	}
	if o.SidColumn == "" {
		o.SidColumn = "sid"
	}
	if o.RecencyColumn == "" {
		o.RecencyColumn = "recency"
	}
	return o
}

// ArmInfo describes one generated per-(disjunct, relation) arm.
type ArmInfo struct {
	Disjunct int
	Relation string // binding name
	Minimal  bool
	Reasons  []string // why minimality was lost, when it was
	SQL      string
}

// Generated is the outcome of recency-query generation.
type Generated struct {
	// Stmt is the generated recency query (nil when Empty).
	Stmt *sqlparser.SelectStmt
	// SQL is Stmt rendered to text (empty when Empty).
	SQL string
	// Empty means the relevant-source set is provably empty: the user
	// query's predicates are unsatisfiable (Corollaries 2/6), so no recency
	// query needs to run.
	Empty bool
	// Minimal means the computed set is guaranteed to be exactly S(Q)
	// (Theorems 3/4 applied to every arm). When false the set is still a
	// complete upper bound (Corollaries 3/5).
	Minimal bool
	// Reasons explains a false Minimal.
	Reasons []string
	// Arms carries per-arm diagnostics.
	Arms []ArmInfo
	// SkippedDisjuncts counts disjuncts dropped as provably unsatisfiable.
	SkippedDisjuncts int
}

// Generate derives the recency query for a user SELECT.
func Generate(sel *sqlparser.SelectStmt, cat *storage.Catalog, opts Options) (*Generated, error) {
	opts = opts.withDefaults()
	if len(sel.Union) > 0 {
		return nil, fmt.Errorf("recgen: UNION queries are not single SPJ expressions")
	}
	if len(sel.From) == 0 {
		return &Generated{Empty: true, Minimal: true}, nil
	}

	// Aggregation (GROUP BY / HAVING / aggregate select items) sits above
	// the SPJ core the paper's definitions cover. Relevance is computed for
	// the core: by Theorem 1 no single update from a core-irrelevant source
	// can change the core result set, hence no aggregate over it either —
	// completeness carries over unconditionally. Minimality carries over
	// only when every core change is guaranteed to surface in the answer,
	// which holds for an ungrouped COUNT(*) (any qualifying insert bumps
	// the count — the shape of the paper's Q1–Q4) but not in general (a
	// MIN may absorb a new row; a HAVING may filter the changed group).
	hasCountStar, hasAgg := false, false
	for _, it := range sel.Items {
		if it.Star {
			continue
		}
		if fc, ok := it.Expr.(*sqlparser.FuncCall); ok {
			hasAgg = true
			if fc.Name == sqlparser.FuncCount && fc.Star {
				hasCountStar = true
			}
		}
	}
	aggDowngrade := ""
	switch {
	case sel.Having != nil:
		aggDowngrade = "HAVING may filter the group a core update lands in"
	case len(sel.GroupBy) > 0:
		aggDowngrade = "GROUP BY aggregates may absorb core updates"
	case hasAgg && !hasCountStar:
		aggDowngrade = "aggregates without COUNT(*) may absorb core updates"
	}

	// Resolve relations.
	rels := make([]classify.Relation, len(sel.From))
	for i, ref := range sel.From {
		tbl, err := cat.Get(ref.Name)
		if err != nil {
			return nil, err
		}
		rels[i] = classify.Relation{Binding: ref.Binding(), Table: tbl}
	}
	hb, err := cat.Get(opts.HeartbeatTable)
	if err != nil {
		return nil, fmt.Errorf("recgen: heartbeat table: %w", err)
	}
	if hb.Schema.ColumnIndex(opts.SidColumn) < 0 || hb.Schema.ColumnIndex(opts.RecencyColumn) < 0 {
		return nil, fmt.Errorf("recgen: heartbeat table %s lacks %s/%s columns",
			opts.HeartbeatTable, opts.SidColumn, opts.RecencyColumn)
	}
	hAlias := freshAlias(sel.From)

	// §3.4: conjoin predicate-form CHECK constraints onto the query so the
	// potential tuples of the relevance definitions are restricted to legal
	// ones (higher precision, same completeness).
	where, dropped := classify.WithChecks(sel.Where, rels)

	// DNF conversion; on blow-up fall back to the all-sources upper bound.
	d, err := dnf.Convert(where)
	if err != nil {
		stmt := allSourcesStmt(opts, hAlias)
		return &Generated{
			Stmt:    stmt,
			SQL:     stmt.SQL(),
			Minimal: false,
			Reasons: []string{fmt.Sprintf("DNF conversion failed (%v); reporting all sources", err)},
		}, nil
	}

	gen := &Generated{Minimal: true}
	if len(dropped) > 0 {
		gen.Minimal = false
		gen.Reasons = append(gen.Reasons, "CHECK not conjoined (no \"not FALSE\" form): "+renderTerms(dropped))
	}
	if aggDowngrade != "" {
		gen.Minimal = false
		gen.Reasons = append(gen.Reasons, "aggregate query: relevance computed for its SPJ core ("+aggDowngrade+")")
	}
	var arms []*sqlparser.SelectStmt
	seen := make(map[string]bool)

	for di, conj := range d {
		cls, err := classify.Conjunct(conj, rels)
		if err != nil {
			return nil, err
		}
		// Corollary 2/6 shortcut: a provably unsatisfiable disjunct
		// contributes no relevant sources.
		if sat.CheckConstants(cls.Constants) == sat.Unsat {
			gen.SkippedDisjuncts++
			continue
		}
		prSat := make([]sat.Result, len(rels))
		unsat := false
		for i, rel := range rels {
			prSat[i] = sat.CheckRegular(cls.Relations[i].Pr, rel.Binding, rel.Table)
			if prSat[i] == sat.Unsat {
				unsat = true
			}
		}
		if unsat {
			gen.SkippedDisjuncts++
			continue
		}

		for i, rel := range rels {
			if rel.SourceColumn() == "" {
				// Unmonitored relation: no updates are tagged with sources
				// via it, so it contributes no arm.
				continue
			}
			pr := cls.Relations[i]
			arm, err := buildArm(rels, i, pr, hb, hAlias, opts)
			if err != nil {
				return nil, err
			}
			info := ArmInfo{Disjunct: di, Relation: rel.Binding, Minimal: true, SQL: arm.SQL()}
			if len(pr.Pm) > 0 {
				info.Minimal = false
				info.Reasons = append(info.Reasons,
					fmt.Sprintf("mixed predicate on %s: %s", rel.Binding, renderTerms(pr.Pm)))
			}
			if len(pr.Jrm) > 0 {
				info.Minimal = false
				info.Reasons = append(info.Reasons,
					fmt.Sprintf("regular-column join predicate on %s: %s", rel.Binding, renderTerms(pr.Jrm)))
			}
			if prSat[i] != sat.Sat {
				info.Minimal = false
				info.Reasons = append(info.Reasons,
					fmt.Sprintf("satisfiability of regular predicates on %s is %v", rel.Binding, prSat[i]))
			}
			if !info.Minimal {
				gen.Minimal = false
				gen.Reasons = append(gen.Reasons, info.Reasons...)
			}
			gen.Arms = append(gen.Arms, info)
			key := arm.SQL()
			if !seen[key] {
				seen[key] = true
				arms = append(arms, arm)
			}
		}
	}

	if len(arms) == 0 {
		gen.Empty = true
		return gen, nil
	}
	head := arms[0]
	head.Union = append(head.Union, arms[1:]...)
	gen.Stmt = head
	gen.SQL = head.SQL()
	return gen, nil
}

// NaiveStmt is the Naive method's recency query: every source in the
// Heartbeat table.
func NaiveStmt(opts Options) *sqlparser.SelectStmt {
	opts = opts.withDefaults()
	return allSourcesStmt(opts, "trac_h")
}

// NaiveSQL renders NaiveStmt.
func NaiveSQL(opts Options) string { return NaiveStmt(opts).SQL() }

func allSourcesStmt(opts Options, hAlias string) *sqlparser.SelectStmt {
	return &sqlparser.SelectStmt{
		Items: []sqlparser.SelectItem{
			{Expr: &sqlparser.ColumnRef{Table: hAlias, Column: opts.SidColumn}, Alias: opts.SidColumn},
			{Expr: &sqlparser.ColumnRef{Table: hAlias, Column: opts.RecencyColumn}, Alias: opts.RecencyColumn},
		},
		From: []sqlparser.TableRef{{Name: opts.HeartbeatTable, Alias: hAlias}},
	}
}

// buildArm constructs the recency arm for relation index i of one conjunct.
func buildArm(rels []classify.Relation, i int, pr classify.PerRelation,
	hb *storage.Table, hAlias string, opts Options) (*sqlparser.SelectStmt, error) {

	// FROM: Heartbeat plus every relation except R_i. The other relations
	// stay even if unreferenced by the remaining predicates: Definition 2
	// requires actual tuples to exist in them, and an empty relation must
	// make the arm empty.
	from := []sqlparser.TableRef{{Name: hb.Name, Alias: hAlias}}
	for j, rel := range rels {
		if j == i {
			continue
		}
		ref := sqlparser.TableRef{Name: rel.Table.Name}
		if !strings.EqualFold(rel.Binding, rel.Table.Name) {
			ref.Alias = rel.Binding
		}
		from = append(from, ref)
	}

	// WHERE: substituted Ps ∧ substituted Js ∧ Po. Every surviving
	// unqualified reference is qualified with its binding so that nothing
	// becomes ambiguous against the Heartbeat columns added to FROM.
	var terms []sqlparser.Expr
	for _, t := range pr.Ps {
		terms = append(terms, qualifyRefs(substituteSource(t, rels, i, hAlias, opts.SidColumn), rels))
	}
	for _, t := range pr.Js {
		terms = append(terms, qualifyRefs(substituteSource(t, rels, i, hAlias, opts.SidColumn), rels))
	}
	for _, t := range pr.Po {
		terms = append(terms, qualifyRefs(sqlparser.CloneExpr(t), rels))
	}

	return &sqlparser.SelectStmt{
		Distinct: true,
		Items: []sqlparser.SelectItem{
			{Expr: &sqlparser.ColumnRef{Table: hAlias, Column: opts.SidColumn}, Alias: opts.SidColumn},
			{Expr: &sqlparser.ColumnRef{Table: hAlias, Column: opts.RecencyColumn}, Alias: opts.RecencyColumn},
		},
		From:  from,
		Where: sqlparser.AndAll(terms...),
	}, nil
}

// substituteSource clones a term, replacing every reference to R_i's data
// source column with H.sid (the paper's Ps → Ps′, Js → Js′ rewriting).
func substituteSource(term sqlparser.Expr, rels []classify.Relation, i int, hAlias, sidCol string) sqlparser.Expr {
	clone := sqlparser.CloneExpr(term)
	target := rels[i]
	srcIdx := target.Table.Schema.SourceColumn
	sqlparser.WalkExpr(clone, func(e sqlparser.Expr) bool {
		cr, ok := e.(*sqlparser.ColumnRef)
		if !ok {
			return true
		}
		if refersTo(cr, rels, i) && target.Table.Schema.ColumnIndex(cr.Column) == srcIdx {
			cr.Table = hAlias
			cr.Column = sidCol
		}
		return true
	})
	return clone
}

// refersTo reports whether a column reference resolves to relation i.
func refersTo(cr *sqlparser.ColumnRef, rels []classify.Relation, i int) bool {
	if cr.Table != "" {
		return strings.EqualFold(cr.Table, rels[i].Binding)
	}
	// Unqualified: resolves to i iff i is the unique relation with the
	// column (the classifier already rejected ambiguous references).
	for j, rel := range rels {
		if rel.Table.Schema.ColumnIndex(cr.Column) >= 0 {
			return j == i
		}
	}
	return false
}

// qualifyRefs rewrites unqualified column references (in place, on a clone)
// to their resolved binding.
func qualifyRefs(clone sqlparser.Expr, rels []classify.Relation) sqlparser.Expr {
	sqlparser.WalkExpr(clone, func(e sqlparser.Expr) bool {
		cr, ok := e.(*sqlparser.ColumnRef)
		if !ok || cr.Table != "" {
			return true
		}
		for _, rel := range rels {
			if rel.Table.Schema.ColumnIndex(cr.Column) >= 0 {
				cr.Table = rel.Binding
				break
			}
		}
		return true
	})
	return clone
}

func renderTerms(terms []sqlparser.Expr) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t.SQL()
	}
	return strings.Join(parts, " AND ")
}

// freshAlias picks a Heartbeat alias not colliding with the query bindings.
func freshAlias(from []sqlparser.TableRef) string {
	taken := make(map[string]bool, len(from))
	for _, ref := range from {
		taken[strings.ToLower(ref.Binding())] = true
		taken[strings.ToLower(ref.Name)] = true
	}
	alias := "trac_h"
	for n := 2; taken[alias]; n++ {
		alias = fmt.Sprintf("trac_h%d", n)
	}
	return alias
}
