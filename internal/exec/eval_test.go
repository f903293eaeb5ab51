package exec

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"trac/internal/constraint"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// testDB builds an Activity-like table with a few rows and returns the
// layout over it.
func testActivity(t *testing.T) (*storage.Table, *txn.Manager) {
	t.Helper()
	schema, err := storage.NewSchema([]storage.Column{
		{Name: "mach_id", Kind: types.KindString},
		{Name: "value", Kind: types.KindString},
		{Name: "event_time", Kind: types.KindTime},
		{Name: "load", Kind: types.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema.SetSourceColumn("mach_id")
	tbl := storage.NewTable("Activity", schema)
	m := txn.NewManager()
	tx := m.Begin()
	rows := []struct {
		id, val string
		ts      string
		load    float64
	}{
		{"m1", "idle", "2006-03-11 20:37:46", 0.1},
		{"m2", "busy", "2006-02-10 18:22:01", 0.9},
		{"m3", "idle", "2006-03-12 10:23:05", 0.2},
	}
	for _, r := range rows {
		ts, _ := types.ParseTime(r.ts)
		tx.InsertRow(tbl, storage.NewRow([]types.Value{
			types.NewString(r.id), types.NewString(r.val), types.NewTime(ts), types.NewFloat(r.load),
		}, 0))
	}
	tx.Commit()
	return tbl, m
}

func layoutFor(tbl *storage.Table, name string) *Layout {
	return NewLayout([]Binding{{Name: name, Table: tbl}})
}

func evalOn(t *testing.T, layout *Layout, exprSQL string, row []types.Value) types.Value {
	t.Helper()
	e, err := sqlparser.ParseExpr(exprSQL)
	if err != nil {
		t.Fatalf("parse %q: %v", exprSQL, err)
	}
	ev, err := Compile(e, layout)
	if err != nil {
		t.Fatalf("compile %q: %v", exprSQL, err)
	}
	v, err := ev(row)
	if err != nil {
		t.Fatalf("eval %q: %v", exprSQL, err)
	}
	return v
}

func TestCompileComparisons(t *testing.T) {
	tbl, _ := testActivity(t)
	layout := layoutFor(tbl, "activity")
	ts, _ := types.ParseTime("2006-03-11 20:37:46")
	row := []types.Value{types.NewString("m1"), types.NewString("idle"), types.NewTime(ts), types.NewFloat(0.1)}

	cases := []struct {
		src  string
		want bool
	}{
		{"mach_id = 'm1'", true},
		{"mach_id = 'm2'", false},
		{"mach_id <> 'm2'", true},
		{"value = 'idle'", true},
		{"load < 0.5", true},
		{"load >= 0.1", true},
		{"load > 0.1", false},
		{"mach_id IN ('m1', 'm2')", true},
		{"mach_id IN ('m4', 'm5')", false},
		{"mach_id NOT IN ('m4')", true},
		{"load BETWEEN 0.05 AND 0.2", true},
		{"load NOT BETWEEN 0.05 AND 0.2", false},
		{"mach_id LIKE 'm%'", true},
		{"mach_id LIKE 'x%'", false},
		{"mach_id LIKE '_1'", true},
		{"mach_id NOT LIKE '_2'", true},
		{"mach_id IS NULL", false},
		{"mach_id IS NOT NULL", true},
		{"mach_id = 'm1' AND value = 'idle'", true},
		{"mach_id = 'm2' OR value = 'idle'", true},
		{"NOT mach_id = 'm2'", true},
		{"load + 0.9 >= 1.0", true},
		{"load * 2 = 0.2", true},
		{"event_time = TIMESTAMP '2006-03-11 20:37:46'", true},
		{"event_time > TIMESTAMP '2006-03-11 00:00:00'", true},
		// String literal coerced to timestamp against a TIMESTAMP column.
		{"event_time = '2006-03-11 20:37:46'", true},
		{"'2006-03-12 00:00:00' > event_time", true},
	}
	for _, c := range cases {
		v := evalOn(t, layout, c.src, row)
		if v.Kind() != types.KindBool || v.Bool() != c.want {
			t.Errorf("%q = %v, want %v", c.src, v, c.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	tbl, _ := testActivity(t)
	layout := layoutFor(tbl, "a")
	nullRow := []types.Value{types.Null, types.Null, types.Null, types.Null}

	// NULL comparisons are UNKNOWN.
	if v := evalOn(t, layout, "mach_id = 'm1'", nullRow); !v.IsNull() {
		t.Errorf("NULL = 'm1' should be UNKNOWN, got %v", v)
	}
	// UNKNOWN AND FALSE = FALSE; UNKNOWN OR TRUE = TRUE.
	if v := evalOn(t, layout, "mach_id = 'm1' AND 1 = 2", nullRow); !isFalse(v) {
		t.Errorf("UNKNOWN AND FALSE = %v, want FALSE", v)
	}
	if v := evalOn(t, layout, "mach_id = 'm1' OR 1 = 1", nullRow); !isTrue(v) {
		t.Errorf("UNKNOWN OR TRUE = %v, want TRUE", v)
	}
	// UNKNOWN AND TRUE = UNKNOWN.
	if v := evalOn(t, layout, "mach_id = 'm1' AND 1 = 1", nullRow); !v.IsNull() {
		t.Errorf("UNKNOWN AND TRUE = %v, want UNKNOWN", v)
	}
	// NOT UNKNOWN = UNKNOWN.
	if v := evalOn(t, layout, "NOT mach_id = 'm1'", nullRow); !v.IsNull() {
		t.Errorf("NOT UNKNOWN = %v, want UNKNOWN", v)
	}
	// x IN (...) with NULL member and no match is UNKNOWN.
	if v := evalOn(t, layout, "1 IN (2, NULL)", nullRow); !v.IsNull() {
		t.Errorf("1 IN (2, NULL) = %v, want UNKNOWN", v)
	}
	// ...but a match wins.
	if v := evalOn(t, layout, "1 IN (1, NULL)", nullRow); !isTrue(v) {
		t.Errorf("1 IN (1, NULL) = %v, want TRUE", v)
	}
	// IS NULL on NULL is TRUE (not UNKNOWN).
	if v := evalOn(t, layout, "mach_id IS NULL", nullRow); !isTrue(v) {
		t.Errorf("NULL IS NULL = %v, want TRUE", v)
	}
}

func TestCompileErrors(t *testing.T) {
	tbl, _ := testActivity(t)
	layout := layoutFor(tbl, "a")
	bad := []string{
		"no_such_col = 1",
		"b.mach_id = 'm1'", // unknown alias
		"COUNT(*) = 1",     // aggregate outside select list
	}
	for _, src := range bad {
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Compile(e, layout); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	tbl, _ := testActivity(t)
	layout := NewLayout([]Binding{{Name: "a", Table: tbl}, {Name: "b", Table: tbl}})
	e, _ := sqlparser.ParseExpr("mach_id = 'm1'")
	if _, err := Compile(e, layout); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
	// Qualified reference resolves.
	e2, _ := sqlparser.ParseExpr("b.mach_id = 'm1'")
	if _, err := Compile(e2, layout); err != nil {
		t.Errorf("qualified compile: %v", err)
	}
}

func TestArithmeticSemantics(t *testing.T) {
	tbl, _ := testActivity(t)
	layout := layoutFor(tbl, "a")
	row := make([]types.Value, 4)

	if v := evalOn(t, layout, "7 / 2", row); v.Int() != 3 {
		t.Errorf("integer division 7/2 = %v", v)
	}
	if v := evalOn(t, layout, "7.0 / 2", row); v.Float() != 3.5 {
		t.Errorf("float division = %v", v)
	}
	if v := evalOn(t, layout, "2 + 3 * 4", row); v.Int() != 14 {
		t.Errorf("precedence: %v", v)
	}
	e, _ := sqlparser.ParseExpr("1 / 0")
	ev, _ := Compile(e, layout)
	if _, err := ev(row); err == nil {
		t.Error("division by zero should error")
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"Tao100", "Tao%", true},
		{"Tao100", "%100", true},
		{"Tao100", "T%0", true},
		{"Tao100", "Tao_00", true},
		{"Tao100", "tao%", false}, // case-sensitive
		{"idle", "idle", true},
		{"idle", "id", false},
		{"", "%", true},
		{"", "", true},
		{"", "_", false},
		{"abc", "%%", true},
		{"abc", "a%b%c", true},
		{"abc", "a%d", false},
		{"aXbXc", "a_b_c", true},
		{"mississippi", "m%iss%ppi", true},
		{"mississippi", "m%iss%ppx", false},
	}
	for _, c := range cases {
		if got := constraint.MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestLikePrefix(t *testing.T) {
	cases := map[string]string{
		"Tao%":  "Tao",
		"%x":    "",
		"ab_c":  "ab",
		"plain": "plain",
	}
	for p, want := range cases {
		if got := constraint.LikePrefix(p); got != want {
			t.Errorf("LikePrefix(%q) = %q, want %q", p, got, want)
		}
	}
}

// Property: MatchLike with a pattern equal to the string (no wildcards)
// matches exactly, and "%"+s+"%" always matches any superstring.
func TestMatchLikeProperty(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "%_") {
			return true // skip wildcard-bearing inputs
		}
		if !constraint.MatchLike(s, s) {
			return false
		}
		return constraint.MatchLike("x"+s+"y", "%"+s+"%")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowKeyDistinguishesValues(t *testing.T) {
	a := RowKey([]types.Value{types.NewString("ab"), types.NewString("c")})
	b := RowKey([]types.Value{types.NewString("a"), types.NewString("bc")})
	if a == b {
		t.Error("length-prefixed encoding must distinguish (ab,c) from (a,bc)")
	}
	// 3 and 3.0 encode identically (they compare equal).
	if RowKey([]types.Value{types.NewInt(3)}) != RowKey([]types.Value{types.NewFloat(3)}) {
		t.Error("3 and 3.0 should share a key")
	}
	if RowKey([]types.Value{types.Null}) == RowKey([]types.Value{types.NewInt(0)}) {
		t.Error("NULL must not collide with 0")
	}
}

func TestCompileWithHook(t *testing.T) {
	tbl, _ := testActivity(t)
	layout := layoutFor(tbl, "a")
	// Hook replaces any reference to "magic" with a constant.
	hook := func(e sqlparser.Expr) (Evaluator, bool, error) {
		if cr, ok := e.(*sqlparser.ColumnRef); ok && cr.Column == "magic" {
			return func([]types.Value) (types.Value, error) { return types.NewInt(7), nil }, true, nil
		}
		return nil, false, nil
	}
	e, _ := sqlparser.ParseExpr(`magic + 1`)
	ev, err := CompileWith(e, layout, hook)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ev(nil)
	if err != nil || v.Int() != 8 {
		t.Errorf("hooked eval = %v, %v", v, err)
	}
	// Hook errors propagate.
	hookErr := func(e sqlparser.Expr) (Evaluator, bool, error) {
		if _, ok := e.(*sqlparser.ColumnRef); ok {
			return nil, false, errStub
		}
		return nil, false, nil
	}
	if _, err := CompileWith(e, layout, hookErr); err == nil {
		t.Error("hook error should propagate")
	}
	// Non-intercepted nodes fall through to normal compilation.
	e2, _ := sqlparser.ParseExpr(`mach_id = 'm1'`)
	if _, err := CompileWith(e2, layout, hook); err != nil {
		t.Errorf("fallthrough compile: %v", err)
	}
}

var errStub = fmt.Errorf("stub error")

func TestLayoutBindingOf(t *testing.T) {
	act, m := testActivity(t)
	_ = m
	layout := NewLayout([]Binding{{Name: "a", Table: act}, {Name: "b", Table: act}})
	if layout.BindingOf(0) != 0 {
		t.Error("offset 0 should be binding 0")
	}
	if layout.BindingOf(act.Schema.NumColumns()) != 1 {
		t.Error("first offset of second table should be binding 1")
	}
	if layout.BindingOf(layout.Width()) != -1 {
		t.Error("out of range should be -1")
	}
	if _, err := layout.ColumnAt(layout.Width()); err == nil {
		t.Error("ColumnAt out of range should fail")
	}
}

func TestEncodeKeyAllKinds(t *testing.T) {
	a := RowKey([]types.Value{
		types.NewBool(true), types.NewBool(false),
		types.NewTimeNanos(123), types.NewFloat(2.5), types.Null,
	})
	b := RowKey([]types.Value{
		types.NewBool(true), types.NewBool(false),
		types.NewTimeNanos(123), types.NewFloat(2.5), types.Null,
	})
	if a != b {
		t.Error("encoding not deterministic")
	}
	if RowKey([]types.Value{types.NewBool(true)}) == RowKey([]types.Value{types.NewBool(false)}) {
		t.Error("bools collide")
	}
	if RowKey([]types.Value{types.NewTimeNanos(1)}) == RowKey([]types.Value{types.NewInt(1)}) {
		t.Error("time and int must not collide")
	}
	// Large non-integral float keeps its own encoding.
	if RowKey([]types.Value{types.NewFloat(1e300)}) == RowKey([]types.Value{types.NewFloat(1.5e300)}) {
		t.Error("distinct large floats collide")
	}
}
