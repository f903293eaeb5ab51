package sqlparser

import (
	"reflect"
	"strings"
	"testing"

	"trac/internal/types"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestParsePaperQ1(t *testing.T) {
	// The paper's example query over the Activity table.
	stmt := mustParse(t, `SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle';`)
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("not a SelectStmt: %T", stmt)
	}
	if len(sel.Items) != 1 || sel.Items[0].Expr.(*ColumnRef).Column != "mach_id" {
		t.Errorf("items = %+v", sel.Items)
	}
	if len(sel.From) != 1 || sel.From[0].Name != "Activity" {
		t.Errorf("from = %+v", sel.From)
	}
	and, ok := sel.Where.(*Logical)
	if !ok || and.Op != LogicAnd {
		t.Fatalf("where = %T", sel.Where)
	}
	in, ok := and.Left.(*In)
	if !ok || len(in.List) != 2 || in.Negated {
		t.Fatalf("left = %#v", and.Left)
	}
	cmp, ok := and.Right.(*Comparison)
	if !ok || cmp.Op != CmpEq {
		t.Fatalf("right = %#v", and.Right)
	}
}

func TestParsePaperQ2Join(t *testing.T) {
	stmt := mustParse(t, `
		SELECT A.mach_id FROM Routing R, Activity A
		WHERE R.mach_id = 'm1' AND A.value = 'idle'
		AND R.neighbor = A.mach_id;`)
	sel := stmt.(*SelectStmt)
	if len(sel.From) != 2 {
		t.Fatalf("from = %+v", sel.From)
	}
	if sel.From[0].Name != "Routing" || sel.From[0].Alias != "R" {
		t.Errorf("from[0] = %+v", sel.From[0])
	}
	if sel.From[1].Binding() != "A" {
		t.Errorf("binding = %q", sel.From[1].Binding())
	}
	refs := ColumnRefs(sel.Where)
	if len(refs) != 4 {
		t.Errorf("got %d column refs, want 4", len(refs))
	}
}

func TestParseAggregates(t *testing.T) {
	sel := mustParse(t, `SELECT COUNT(*), MIN(recency), MAX(recency) FROM Heartbeat`).(*SelectStmt)
	if len(sel.Items) != 3 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	c := sel.Items[0].Expr.(*FuncCall)
	if c.Name != FuncCount || !c.Star {
		t.Errorf("COUNT(*) parsed as %+v", c)
	}
	m := sel.Items[1].Expr.(*FuncCall)
	if m.Name != FuncMin || m.Arg.(*ColumnRef).Column != "recency" {
		t.Errorf("MIN parsed as %+v", m)
	}
}

func TestParseDistinctOrderLimit(t *testing.T) {
	sel := mustParse(t, `SELECT DISTINCT sid FROM Heartbeat ORDER BY sid DESC, recency LIMIT 10`).(*SelectStmt)
	if !sel.Distinct {
		t.Error("DISTINCT lost")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order by = %+v", sel.OrderBy)
	}
	if sel.Limit == nil || *sel.Limit != 10 {
		t.Errorf("limit = %v", sel.Limit)
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []struct {
		src  string
		want string // re-rendered SQL
	}{
		{"a = 1 AND b = 2 OR c = 3", "a = 1 AND b = 2 OR c = 3"},
		{"a = 1 AND (b = 2 OR c = 3)", "a = 1 AND (b = 2 OR c = 3)"},
		{"NOT a = 1", "NOT (a = 1)"},
		{"x BETWEEN 1 AND 10", "x BETWEEN 1 AND 10"},
		{"x NOT BETWEEN 1 AND 10", "x NOT BETWEEN 1 AND 10"},
		{"name LIKE 'Tao%'", "name LIKE 'Tao%'"},
		{"name NOT LIKE 'Tao%'", "name NOT LIKE 'Tao%'"},
		{"v IS NULL", "v IS NULL"},
		{"v IS NOT NULL", "v IS NOT NULL"},
		{"x IN (1, 2, 3)", "x IN (1, 2, 3)"},
		{"x NOT IN (1, 2)", "x NOT IN (1, 2)"},
		{"a + b * c", "(a + (b * c))"},
		{"(a + b) * c", "((a + b) * c)"},
		{"-5", "-5"},
		{"-x", "(0 - x)"},
		{"ts >= TIMESTAMP '2006-03-15 14:20:05'", "ts >= TIMESTAMP '2006-03-15 14:20:05'"},
		{"a <> 1", "a <> 1"},
		{"a != 1", "a <> 1"},
		{"TRUE OR FALSE", "TRUE OR FALSE"},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", c.src, err)
			continue
		}
		if got := e.SQL(); got != c.want {
			t.Errorf("ParseExpr(%q).SQL() = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseTimestampLiteral(t *testing.T) {
	e, err := ParseExpr("TIMESTAMP '2006-03-15 14:20:05'")
	if err != nil {
		t.Fatal(err)
	}
	lit := e.(*Literal)
	if lit.Val.Kind() != types.KindTime {
		t.Fatalf("kind = %v", lit.Val.Kind())
	}
	if got := lit.Val.String(); got != "2006-03-15 14:20:05" {
		t.Errorf("value = %q", got)
	}
}

func TestParseInsert(t *testing.T) {
	stmt := mustParse(t, `INSERT INTO Activity (mach_id, value, event_time) VALUES ('m1', 'idle', TIMESTAMP '2006-03-11 20:37:46'), ('m2', 'busy', TIMESTAMP '2006-02-10 18:22:01')`)
	ins := stmt.(*InsertStmt)
	if ins.Table != "Activity" || len(ins.Columns) != 3 || len(ins.Rows) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	if len(ins.Rows[0]) != 3 {
		t.Errorf("row 0 = %+v", ins.Rows[0])
	}
}

func TestParseUpdateDelete(t *testing.T) {
	up := mustParse(t, `UPDATE Heartbeat SET recency = TIMESTAMP '2006-03-15 14:20:05' WHERE sid = 'm1'`).(*UpdateStmt)
	if up.Table != "Heartbeat" || len(up.Set) != 1 || up.Where == nil {
		t.Fatalf("update = %+v", up)
	}
	del := mustParse(t, `DELETE FROM Activity WHERE mach_id = 'm9'`).(*DeleteStmt)
	if del.Table != "Activity" || del.Where == nil {
		t.Fatalf("delete = %+v", del)
	}
	del2 := mustParse(t, `DELETE FROM Activity`).(*DeleteStmt)
	if del2.Where != nil {
		t.Fatal("unconditional delete should have nil Where")
	}
}

func TestParseCreateTableAndIndex(t *testing.T) {
	ct := mustParse(t, `CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`).(*CreateTableStmt)
	if ct.Name != "Heartbeat" || len(ct.Columns) != 2 {
		t.Fatalf("create = %+v", ct)
	}
	if !ct.Columns[0].PrimaryKey || ct.Columns[0].Type != types.KindString {
		t.Errorf("col0 = %+v", ct.Columns[0])
	}
	if ct.Columns[1].Type != types.KindTime {
		t.Errorf("col1 = %+v", ct.Columns[1])
	}
	ci := mustParse(t, `CREATE INDEX idx_act_mach ON Activity (mach_id)`).(*CreateIndexStmt)
	if ci.Name != "idx_act_mach" || ci.Table != "Activity" || ci.Column != "mach_id" {
		t.Fatalf("create index = %+v", ci)
	}
	dt := mustParse(t, `DROP TABLE Activity`).(*DropTableStmt)
	if dt.Name != "Activity" {
		t.Fatalf("drop = %+v", dt)
	}
}

func TestParseUnion(t *testing.T) {
	sel := mustParse(t, `SELECT sid FROM H WHERE sid = 'a' UNION SELECT sid FROM H WHERE sid = 'b' UNION SELECT sid FROM H WHERE sid = 'c'`).(*SelectStmt)
	if len(sel.Union) != 2 {
		t.Fatalf("union arms = %d, want 2", len(sel.Union))
	}
}

func TestParseVarcharAndTypes(t *testing.T) {
	ct := mustParse(t, `CREATE TABLE T (a VARCHAR(32), b INT, c INTEGER, d FLOAT, e DOUBLE, f BOOLEAN)`).(*CreateTableStmt)
	wantKinds := []types.Kind{types.KindString, types.KindInt, types.KindInt, types.KindFloat, types.KindFloat, types.KindBool}
	for i, k := range wantKinds {
		if ct.Columns[i].Type != k {
			t.Errorf("col %d type = %v, want %v", i, ct.Columns[i].Type, k)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC x",
		"SELECT FROM t",
		"SELECT x FROM",
		"SELECT x FROM t WHERE",
		"SELECT x FROM t WHERE a =",
		"SELECT x FROM t WHERE a IN ()",
		"SELECT x FROM t WHERE a BETWEEN 1",
		"INSERT INTO t VALUES",
		"CREATE TABLE t",
		"CREATE VIEW v",
		"SELECT x FROM t extra garbage (",
		"SELECT MIN(*) FROM t",
		"SELECT x FROM t WHERE NOT",
		"CREATE TABLE t (CHECK (a > 0))",
		"SELECT TIMESTAMP '1677-01-01 00:00:00'",
		"SELECT TIMESTAMP '2263-01-01'",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// roundTripStatements covers every statement form; TestStatementSQLRoundTrip
// runs them and FuzzParseRoundTrip starts from them.
var roundTripStatements = []string{
	`SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'`,
	`SELECT COUNT(*) FROM Routing R, Activity A WHERE R.mach_id = 'm1' AND R.neighbor = A.mach_id AND A.value = 'idle'`,
	`SELECT DISTINCT H.sid FROM Heartbeat H WHERE H.sid LIKE 'Tao%' ORDER BY H.sid LIMIT 5`,
	`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`,
	`UPDATE t SET a = 2, b = 'z' WHERE a = 1`,
	`DELETE FROM t WHERE a IS NOT NULL`,
	`CREATE TABLE t (a BIGINT PRIMARY KEY, b TEXT, c TIMESTAMP)`,
	`CREATE TABLE t (a BIGINT, b TEXT, CHECK (a > 0), CONSTRAINT no_x CHECK (b <> 'x'))`,
	`CREATE INDEX i ON t (a)`,
	`DROP TABLE t`,
	`SELECT sid FROM H WHERE a = 1 OR b = 2 AND c = 3`,
	`SELECT sid FROM H WHERE sid = 'a' UNION SELECT sid FROM H WHERE sid = 'b'`,
}

// checkRoundTrip asserts that stmt's SQL() parses back to an equal AST with
// the same text: the WAL logs that text and replay parses it.
func checkRoundTrip(t *testing.T, src string, stmt1 Statement) {
	t.Helper()
	sql1 := stmt1.SQL()
	stmt2, err := Parse(sql1)
	if err != nil {
		t.Fatalf("re-parse of %q failed: %v\nrendered: %q", src, err, sql1)
	}
	if sql2 := stmt2.SQL(); sql1 != sql2 {
		t.Fatalf("render not stable:\n first: %q\nsecond: %q", sql1, sql2)
	}
	if !reflect.DeepEqual(stmt1, stmt2) {
		t.Fatalf("AST changed after round trip for %q\nrendered: %q", src, sql1)
	}
}

func TestStatementSQLRoundTrip(t *testing.T) {
	for _, src := range roundTripStatements {
		checkRoundTrip(t, src, mustParse(t, src))
	}
}

// FuzzParseRoundTrip: Parse never panics on any input, and whatever parses
// renders to SQL that parses back to the same AST and the same text.
func FuzzParseRoundTrip(f *testing.F) {
	for _, src := range roundTripStatements {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		checkRoundTrip(t, src, stmt)
	})
}

func TestCloneExprIsDeep(t *testing.T) {
	e, err := ParseExpr("a = 1 AND b IN ('x','y') AND c BETWEEN 1 AND 2 AND d LIKE 'p%' AND e IS NULL AND NOT (f <> 2) AND (g + h) * 2 > 4")
	if err != nil {
		t.Fatal(err)
	}
	cl := CloneExpr(e)
	if !reflect.DeepEqual(e, cl) {
		t.Fatal("clone differs")
	}
	// Mutating the clone must not affect the original.
	WalkExpr(cl, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			c.Column = strings.ToUpper(c.Column)
		}
		return true
	})
	if reflect.DeepEqual(e, cl) {
		t.Fatal("mutating clone affected original (shallow copy)")
	}
}

func TestAndAllOrAll(t *testing.T) {
	a, _ := ParseExpr("x = 1")
	b, _ := ParseExpr("y = 2")
	c, _ := ParseExpr("z = 3")
	if AndAll() != nil {
		t.Error("AndAll() should be nil")
	}
	if got := AndAll(a, nil, b, c).SQL(); got != "x = 1 AND y = 2 AND z = 3" {
		t.Errorf("AndAll = %q", got)
	}
	if got := OrAll(a, b).SQL(); got != "x = 1 OR y = 2" {
		t.Errorf("OrAll = %q", got)
	}
	if got := AndAll(a); got != a {
		t.Error("AndAll of one should be identity")
	}
}

func TestCmpOpHelpers(t *testing.T) {
	negs := map[CmpOp]CmpOp{CmpEq: CmpNe, CmpNe: CmpEq, CmpLt: CmpGe, CmpLe: CmpGt, CmpGt: CmpLe, CmpGe: CmpLt}
	for op, want := range negs {
		if op.Negate() != want {
			t.Errorf("%v.Negate() = %v, want %v", op, op.Negate(), want)
		}
		if op.Negate().Negate() != op {
			t.Errorf("double negation of %v", op)
		}
	}
	flips := map[CmpOp]CmpOp{CmpEq: CmpEq, CmpNe: CmpNe, CmpLt: CmpGt, CmpLe: CmpGe, CmpGt: CmpLt, CmpGe: CmpLe}
	for op, want := range flips {
		if op.Flip() != want {
			t.Errorf("%v.Flip() = %v, want %v", op, op.Flip(), want)
		}
	}
}

func TestSelectItemStar(t *testing.T) {
	sel := mustParse(t, `SELECT * FROM t`).(*SelectStmt)
	if !sel.Items[0].Star {
		t.Error("star lost")
	}
	sel2 := mustParse(t, `SELECT a.* FROM t a`).(*SelectStmt)
	if !sel2.Items[0].Star || sel2.Items[0].Table != "a" {
		t.Errorf("qualified star = %+v", sel2.Items[0])
	}
}

func TestAliasWithoutAS(t *testing.T) {
	sel := mustParse(t, `SELECT mach_id m, COUNT(*) AS n FROM Activity a`).(*SelectStmt)
	if sel.Items[0].Alias != "m" || sel.Items[1].Alias != "n" {
		t.Errorf("aliases = %q, %q", sel.Items[0].Alias, sel.Items[1].Alias)
	}
	if sel.From[0].Alias != "a" {
		t.Errorf("table alias = %q", sel.From[0].Alias)
	}
}

func TestKeywordAsIdentifier(t *testing.T) {
	// "timestamp" is a keyword but also a natural column name in a
	// heartbeat schema.
	sel := mustParse(t, `SELECT timestamp FROM H WHERE timestamp > 5`).(*SelectStmt)
	col := sel.Items[0].Expr.(*ColumnRef)
	if col.Column != "timestamp" {
		t.Errorf("column = %q", col.Column)
	}
}
