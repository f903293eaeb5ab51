package constraint

import (
	"math"
	"testing"

	"trac/internal/sqlparser"
	"trac/internal/types"
)

var kinds = map[string]types.Kind{"n": types.KindInt, "f": types.KindFloat, "s": types.KindString, "ts": types.KindTime, "b": types.KindBool}

func read(t *testing.T, src string) (Constraint, bool) {
	t.Helper()
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	c, ok := Read(e, func(cr *sqlparser.ColumnRef) (types.Kind, bool) {
		k, ok := kinds[cr.Column]
		return k, ok
	})
	return c, ok
}

func ts(s string) types.Value {
	t, err := types.ParseTime(s)
	if err != nil {
		panic(err)
	}
	return types.NewTime(t)
}

// TestReadForms pins what each form keeps, value by value, under the
// evaluator's semantics: NULL operands are UNKNOWN, an INT column against a
// FLOAT literal compares in float64, NOT IN over a NULL member keeps
// nothing, an uncomparable IN member matches nothing, and a TEXT literal
// against a TIMESTAMP column is the timestamp it spells.
func TestReadForms(t *testing.T) {
	i, f, s, null := types.NewInt, types.NewFloat, types.NewString, types.Null
	big := int64(1) << 53
	for _, tc := range []struct {
		src        string
		keep, drop []types.Value
	}{
		{"n = 1.5", nil, []types.Value{i(1), i(2), null}},
		{"n > 1.5", []types.Value{i(2), i(math.MaxInt64)}, []types.Value{i(1), null}},
		{"1.5 >= n", []types.Value{i(1), i(math.MinInt64)}, []types.Value{i(2)}},
		{"n <> 3", []types.Value{i(2), i(4)}, []types.Value{i(3), null}},
		{"n = 9007199254740992.0", []types.Value{i(big), i(big + 1)}, []types.Value{i(big - 1), i(big + 2)}},
		{"n IN (2, 'x', NULL)", []types.Value{i(2)}, []types.Value{i(1), null}},
		{"n NOT IN (1, NULL)", nil, []types.Value{i(1), i(2), null}},
		{"n NOT IN (1, 'x')", []types.Value{i(2)}, []types.Value{i(1), null}},
		{"n BETWEEN 2 AND 1", nil, []types.Value{i(1), i(2)}},
		{"n NOT BETWEEN 2 AND 1", []types.Value{i(1), i(2)}, []types.Value{null}},
		{"n BETWEEN NULL AND 3", nil, []types.Value{i(1), null}},
		{"n NOT BETWEEN 1.5 AND 3", []types.Value{i(1), i(4)}, []types.Value{i(2), i(3)}},
		{"f > 1", []types.Value{f(1.5), f(math.Inf(1))}, []types.Value{f(1), f(math.NaN()), null}},
		{"f < 0", []types.Value{f(math.NaN()), f(math.Inf(-1))}, []types.Value{f(0), f(math.Copysign(0, -1))}},
		{"s LIKE 'ab'", []types.Value{s("ab")}, []types.Value{s("abc"), null}},
		{"s LIKE 'ab%'", []types.Value{s("ab"), s("ab\xff")}, []types.Value{s("ac"), s("a")}},
		{"s LIKE 'a_c'", []types.Value{s("abc")}, []types.Value{s("ab"), s("abcc")}},
		{"s NOT LIKE 'a%c'", []types.Value{s("ab"), s("b")}, []types.Value{s("abc"), null}},
		{"s NOT LIKE '\xff%'", []types.Value{s("a")}, []types.Value{s("\xff"), s("\xff\xff")}},
		{"s IS NULL", []types.Value{null}, []types.Value{s("")}},
		{"s IS NOT NULL", []types.Value{s("")}, []types.Value{null}},
		{"ts >= '2006-03-15'", []types.Value{ts("2006-03-15 00:00:00")}, []types.Value{ts("2006-03-14 23:59:59")}},
		{"b = TRUE", []types.Value{types.NewBool(true)}, []types.Value{types.NewBool(false)}},
	} {
		c, ok := read(t, tc.src)
		if !ok {
			t.Errorf("%s: unread", tc.src)
			continue
		}
		for _, v := range tc.keep {
			if !c.Contains(v) {
				t.Errorf("%s drops %v", tc.src, v)
			}
		}
		for _, v := range tc.drop {
			if c.Contains(v) {
				t.Errorf("%s keeps %v", tc.src, v)
			}
		}
	}
	for _, src := range []string{"s = 5", "ts = 'not a time'", "ts BETWEEN 1 AND 2", "n LIKE 'a%'", "s LIKE NULL", "n = n", "n IN (1, n)", "NOT (n = 1)", "1 = 1"} {
		if _, ok := read(t, src); ok {
			t.Errorf("%s: read, want unread (the evaluator decides it)", src)
		}
	}
}

// TestShapes pins the representation the planner relies on: point sets for
// probe keys (distinct), and the hull for index ranges.
func TestShapes(t *testing.T) {
	c, _ := read(t, "s IN ('b', 'a', 'b')")
	if c.Range || len(c.Points) != 2 || c.Points[0].Str() != "a" {
		t.Errorf("IN with duplicates = %+v, want points [a b]", c)
	}
	c, _ = read(t, "n > 3")
	c2, _ := read(t, "n <= 7")
	iv, ok := c.Intersect(c2).Hull()
	if !ok || iv.Lo.Val.Int() != 3 || !iv.Lo.Open || iv.Hi.Val.Int() != 7 || iv.Hi.Open {
		t.Errorf("hull of n > 3 AND n <= 7 = %+v", iv)
	}
	if c, _ = read(t, "n BETWEEN 3.5 AND 4.5"); c.Range || len(c.Points) != 1 || c.Points[0].Int() != 4 {
		t.Errorf("n BETWEEN 3.5 AND 4.5 = %+v, want the point 4", c)
	}
	empty := func(c Constraint) bool { return !c.Null && len(c.Points)+len(c.Ivs) == 0 }
	c, _ = read(t, "n > 3")
	c2, _ = read(t, "n < 4")
	if !empty(c.Intersect(c2)) {
		t.Error("n > 3 AND n < 4 is not empty")
	}
	c, _ = read(t, "s > 'a'")
	c2, _ = read(t, "s < 'a\x00'")
	if !empty(c.Intersect(c2)) {
		t.Error("s > 'a' AND s < 'a\\x00' is not empty")
	}
	c, _ = read(t, "s NOT IN ('x', 'y')")
	if p := c.Complement(); p.Range || len(p.Points) != 2 || !p.Null {
		t.Errorf("complement of NOT IN = %+v, want the two points and NULL", p)
	}
}

// TestOfDomain: a domain's members and NULL; an integer range stated over
// an INT column only.
func TestOfDomain(t *testing.T) {
	d, _ := types.IntRangeDomain(0, 9)
	c, exact := OfDomain(d, types.KindInt)
	if !exact || !c.Contains(types.NewInt(9)) || c.Contains(types.NewInt(10)) || !c.Contains(types.Null) {
		t.Errorf("int range [0..9] = %+v", c)
	}
	if _, exact := OfDomain(d, types.KindFloat); exact {
		t.Error("an integer range over a DOUBLE column stated exactly")
	}
	c, _ = OfDomain(types.MustFiniteDomain(types.NewFloat(1.5), types.NewFloat(2)), types.KindInt)
	if c.Contains(types.NewInt(1)) || !c.Contains(types.NewInt(2)) {
		t.Errorf("{1.5, 2} over INT = %+v, want {2}", c)
	}
}
