package classify

import (
	"testing"

	"trac/internal/core/dnf"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

func mkTable(t *testing.T, name, srcCol string, cols ...string) *storage.Table {
	t.Helper()
	defs := make([]storage.Column, len(cols))
	for i, c := range cols {
		kind := types.KindString
		if c == "event_time" {
			kind = types.KindTime
		}
		defs[i] = storage.Column{Name: c, Kind: kind}
	}
	s, err := storage.NewSchema(defs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetSourceColumn(srcCol); err != nil {
		t.Fatal(err)
	}
	return storage.NewTable(name, s)
}

func terms(t *testing.T, src string) []sqlparser.Expr {
	t.Helper()
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dnf.Convert(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 {
		t.Fatalf("expected one conjunct, got %d", len(d))
	}
	return d[0]
}

func sqls(exprs []sqlparser.Expr) []string {
	out := make([]string, len(exprs))
	for i, e := range exprs {
		out[i] = e.SQL()
	}
	return out
}

func TestSingleRelationClassification(t *testing.T) {
	// Paper §4.1.1: Q1 over Activity(mach_id [source], value, event_time).
	act := mkTable(t, "Activity", "mach_id", "mach_id", "value", "event_time")
	rels := []Relation{{Binding: "Activity", Table: act}}
	cls, err := Conjunct(terms(t, "mach_id IN ('m1', 'm2') AND value = 'idle'"), rels)
	if err != nil {
		t.Fatal(err)
	}
	pr := cls.Relations[0]
	if len(pr.Ps) != 1 || pr.Ps[0].SQL() != "mach_id IN ('m1', 'm2')" {
		t.Errorf("Ps = %v", sqls(pr.Ps))
	}
	if len(pr.Pr) != 1 || pr.Pr[0].SQL() != "value = 'idle'" {
		t.Errorf("Pr = %v", sqls(pr.Pr))
	}
	if len(pr.Pm)+len(pr.Js)+len(pr.Jrm)+len(pr.Po) != 0 {
		t.Errorf("unexpected extra classes: %+v", pr)
	}
}

func TestMixedPredicate(t *testing.T) {
	act := mkTable(t, "Activity", "mach_id", "mach_id", "value", "event_time")
	rels := []Relation{{Binding: "A", Table: act}}
	cls, err := Conjunct(terms(t, "A.mach_id = A.value"), rels)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Relations[0].Pm) != 1 {
		t.Errorf("mixed predicate not detected: %+v", cls.Relations[0])
	}
}

func TestPaperQ2Classification(t *testing.T) {
	// §4.1.2: Routing R joins Activity A.
	// R.mach_id = 'm1'      -> Ps for R, Po for A
	// A.value = 'idle'      -> Pr for A, Po for R
	// R.neighbor = A.mach_id-> Jrm for R (regular col), Js for A (source col)
	rout := mkTable(t, "Routing", "mach_id", "mach_id", "neighbor", "event_time")
	act := mkTable(t, "Activity", "mach_id", "mach_id", "value", "event_time")
	rels := []Relation{{Binding: "R", Table: rout}, {Binding: "A", Table: act}}
	cls, err := Conjunct(terms(t,
		"R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id"), rels)
	if err != nil {
		t.Fatal(err)
	}
	r, a := cls.Relations[0], cls.Relations[1]

	if len(r.Ps) != 1 || r.Ps[0].SQL() != "R.mach_id = 'm1'" {
		t.Errorf("R.Ps = %v", sqls(r.Ps))
	}
	if len(r.Jrm) != 1 || r.Jrm[0].SQL() != "R.neighbor = A.mach_id" {
		t.Errorf("R.Jrm = %v", sqls(r.Jrm))
	}
	if len(r.Po) != 1 || r.Po[0].SQL() != "A.value = 'idle'" {
		t.Errorf("R.Po = %v", sqls(r.Po))
	}
	if len(r.Pr)+len(r.Pm)+len(r.Js) != 0 {
		t.Errorf("R extra: %+v", r)
	}

	if len(a.Pr) != 1 || a.Pr[0].SQL() != "A.value = 'idle'" {
		t.Errorf("A.Pr = %v", sqls(a.Pr))
	}
	if len(a.Js) != 1 || a.Js[0].SQL() != "R.neighbor = A.mach_id" {
		t.Errorf("A.Js = %v", sqls(a.Js))
	}
	if len(a.Po) != 1 || a.Po[0].SQL() != "R.mach_id = 'm1'" {
		t.Errorf("A.Po = %v", sqls(a.Po))
	}
}

func TestSourceToSourceJoin(t *testing.T) {
	// R.mach_id = A.mach_id references only source columns on both sides:
	// Js for both relations.
	rout := mkTable(t, "Routing", "mach_id", "mach_id", "neighbor")
	act := mkTable(t, "Activity", "mach_id", "mach_id", "value")
	rels := []Relation{{Binding: "R", Table: rout}, {Binding: "A", Table: act}}
	cls, err := Conjunct(terms(t, "R.mach_id = A.mach_id"), rels)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Relations[0].Js) != 1 || len(cls.Relations[1].Js) != 1 {
		t.Errorf("Js not detected on both sides: %+v", cls.Relations)
	}
}

func TestConstantTerms(t *testing.T) {
	act := mkTable(t, "Activity", "mach_id", "mach_id", "value")
	rels := []Relation{{Binding: "A", Table: act}}
	cls, err := Conjunct(terms(t, "1 = 2 AND A.value = 'idle'"), rels)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Constants) != 1 || cls.Constants[0].SQL() != "1 = 2" {
		t.Errorf("constants = %v", sqls(cls.Constants))
	}
	// Constant also lands in Po.
	if len(cls.Relations[0].Po) != 1 {
		t.Errorf("Po = %v", sqls(cls.Relations[0].Po))
	}
}

func TestUnqualifiedResolution(t *testing.T) {
	rout := mkTable(t, "Routing", "mach_id", "mach_id", "neighbor")
	act := mkTable(t, "Activity", "mach_id", "mach_id", "value")
	rels := []Relation{{Binding: "R", Table: rout}, {Binding: "A", Table: act}}

	// "neighbor" is unambiguous; "mach_id" is ambiguous.
	cls, err := Conjunct(terms(t, "neighbor = 'm3'"), rels)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Relations[0].Pr) != 1 {
		t.Errorf("neighbor should classify as R's regular selection: %+v", cls.Relations[0])
	}
	if _, err := Conjunct(terms(t, "mach_id = 'm1'"), rels); err == nil {
		t.Error("ambiguous column should error")
	}
	if _, err := Conjunct(terms(t, "B.mach_id = 'm1'"), rels); err == nil {
		t.Error("unknown relation should error")
	}
	if _, err := Conjunct(terms(t, "A.nope = 'm1'"), rels); err == nil {
		t.Error("unknown column should error")
	}
}

func TestThreeWayJoinPo(t *testing.T) {
	a := mkTable(t, "A", "sid", "sid", "x")
	b := mkTable(t, "B", "sid", "sid", "y")
	c := mkTable(t, "C", "sid", "sid", "z")
	rels := []Relation{{Binding: "A", Table: a}, {Binding: "B", Table: b}, {Binding: "C", Table: c}}
	cls, err := Conjunct(terms(t, "A.x = B.y AND B.sid = C.sid"), rels)
	if err != nil {
		t.Fatal(err)
	}
	// For C: A.x = B.y does not reference C -> Po; B.sid = C.sid is Js.
	cc := cls.Relations[2]
	if len(cc.Po) != 1 || cc.Po[0].SQL() != "A.x = B.y" {
		t.Errorf("C.Po = %v", sqls(cc.Po))
	}
	if len(cc.Js) != 1 {
		t.Errorf("C.Js = %v", sqls(cc.Js))
	}
	// For A: A.x = B.y touches A's regular column -> Jrm.
	if len(cls.Relations[0].Jrm) != 1 {
		t.Errorf("A.Jrm = %v", sqls(cls.Relations[0].Jrm))
	}
}

func TestSourceColumnHelper(t *testing.T) {
	act := mkTable(t, "Activity", "mach_id", "mach_id", "value")
	r := Relation{Binding: "A", Table: act}
	if r.SourceColumn() != "mach_id" {
		t.Errorf("SourceColumn = %q", r.SourceColumn())
	}
	s, _ := storage.NewSchema([]storage.Column{{Name: "x", Kind: types.KindInt}})
	plain := Relation{Binding: "P", Table: storage.NewTable("P", s)}
	if plain.SourceColumn() != "" {
		t.Errorf("unmonitored SourceColumn = %q", plain.SourceColumn())
	}
}

func TestWithChecks(t *testing.T) {
	rout := mkTable(t, "Routing", "mach_id", "mach_id", "neighbor")
	e, err := sqlparser.ParseExpr(`neighbor <> mach_id`)
	if err != nil {
		t.Fatal(err)
	}
	rout.Schema.Checks = append(rout.Schema.Checks, e)
	rels := []Relation{{Binding: "R", Table: rout}}

	// A check is conjoined as "not FALSE": a NULL on either side makes it
	// UNKNOWN, which the engine admits.
	where, _ := sqlparser.ParseExpr(`R.mach_id = 'm1'`)
	combined, dropped := WithChecks(where, rels)
	want := "R.mach_id = 'm1' AND (R.neighbor <> R.mach_id OR R.neighbor IS NULL OR R.mach_id IS NULL)"
	if combined.SQL() != want || dropped != nil {
		t.Errorf("WithChecks = %q, %v; want %q", combined.SQL(), dropped, want)
	}
	// Original expressions untouched.
	if e.SQL() != "neighbor <> mach_id" {
		t.Errorf("check AST mutated: %s", e.SQL())
	}
	// Nil where: just the qualified checks.
	onlyChecks, _ := WithChecks(nil, rels)
	if onlyChecks.SQL() != "R.neighbor <> R.mach_id OR R.neighbor IS NULL OR R.mach_id IS NULL" {
		t.Errorf("nil-where WithChecks = %q", onlyChecks.SQL())
	}
	// Table-name-qualified refs in the check are rewritten to the binding.
	e2, _ := sqlparser.ParseExpr(`Routing.neighbor <> 'x'`)
	rout.Schema.Checks = []any{e2}
	got, _ := WithChecks(nil, rels)
	if got.SQL() != "R.neighbor <> 'x' OR R.neighbor IS NULL" {
		t.Errorf("qualified rewrite = %q", got.SQL())
	}
	// No checks, no where: nil.
	plain := mkTable(t, "Plain", "mach_id", "mach_id", "x")
	if got, _ := WithChecks(nil, []Relation{{Binding: "P", Table: plain}}); got != nil {
		t.Error("no checks should yield nil")
	}
	// Non-expression garbage in Checks is skipped.
	plain.Schema.Checks = append(plain.Schema.Checks, 42)
	if got, _ := WithChecks(nil, []Relation{{Binding: "P", Table: plain}}); got != nil {
		t.Error("non-expression check entries must be ignored")
	}
}

// TestNotFalseForms: each check is conjoined in a form that is TRUE exactly
// where the check is not FALSE; a check holding a NULL literal has no such
// form and is returned as dropped.
func TestNotFalseForms(t *testing.T) {
	tbl := mkTable(t, "T", "src", "src", "a", "b")
	rels := []Relation{{Binding: "T", Table: tbl}}
	for _, tc := range []struct{ check, want string }{
		{`a IN ('x', 'y')`, "T.a IN ('x', 'y') OR T.a IS NULL"},
		{`a IS NOT NULL`, "T.a IS NOT NULL"},
		{`a = 'x' AND b = 'y'`, "(T.a = 'x' OR T.a IS NULL) AND (T.b = 'y' OR T.b IS NULL)"},
		{`NOT (a = 'x' OR b LIKE 'y%')`, "(T.a <> 'x' OR T.a IS NULL) AND (T.b NOT LIKE 'y%' OR T.b IS NULL)"},
		{`a IN ('x', NULL)`, ""},
		{`a IN (b, 'x')`, ""},
	} {
		e, err := sqlparser.ParseExpr(tc.check)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Schema.Checks = []any{e}
		got, dropped := WithChecks(nil, rels)
		switch {
		case tc.want == "" && (got != nil || len(dropped) != 1):
			t.Errorf("CHECK (%s): got %v, dropped %v; want it dropped", tc.check, got, dropped)
		case tc.want != "" && (got == nil || got.SQL() != tc.want || dropped != nil):
			t.Errorf("CHECK (%s): got %v, dropped %v; want %s", tc.check, got, dropped, tc.want)
		}
	}
}
