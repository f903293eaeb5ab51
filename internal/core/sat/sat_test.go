package sat

import (
	"testing"

	"trac/internal/core/dnf"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// testTable builds Activity(mach_id[src] TEXT, value TEXT{idle,busy},
// event_time TIMESTAMP, slot INT[0..9], load FLOAT).
func testTable(t *testing.T) *storage.Table {
	t.Helper()
	slotDomain, _ := types.IntRangeDomain(0, 9)
	s, err := storage.NewSchema([]storage.Column{
		{Name: "mach_id", Kind: types.KindString},
		{Name: "value", Kind: types.KindString, Domain: types.FiniteStringDomain("busy", "idle")},
		{Name: "event_time", Kind: types.KindTime},
		{Name: "slot", Kind: types.KindInt, Domain: slotDomain},
		{Name: "load", Kind: types.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSourceColumn("mach_id")
	return storage.NewTable("Activity", s)
}

func check(t *testing.T, tbl *storage.Table, src string) Result {
	t.Helper()
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	d, err := dnf.Convert(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 {
		t.Fatalf("%q is not conjunctive", src)
	}
	return CheckRegular(d[0], "A", tbl)
}

func TestSatisfiableCases(t *testing.T) {
	tbl := testTable(t)
	cases := []string{
		"value = 'idle'",
		"value IN ('idle', 'busy')",
		"value <> 'idle'", // busy remains
		"slot = 5",
		"slot BETWEEN 3 AND 7",
		"slot > 2 AND slot < 5",
		"load > 0.5",
		"load > 0.5 AND load < 0.6",
		"event_time > TIMESTAMP '2006-03-15 00:00:00'",
		"event_time > '2006-03-15 00:00:00' AND event_time < '2006-03-16 00:00:00'",
		"value = 'idle' AND slot = 3 AND load <= 1.0",
		"slot >= 9", // boundary of [0..9]
		"load <> 0.0",
		"value IS NOT NULL",
		"value IS NULL", // every column can hold NULL, whatever its domain
	}
	for _, src := range cases {
		if got := check(t, tbl, src); got != Sat {
			t.Errorf("CheckRegular(%q) = %v, want satisfiable", src, got)
		}
	}
}

func TestUnsatisfiableCases(t *testing.T) {
	tbl := testTable(t)
	cases := []string{
		"value = 'down'",                    // outside finite domain
		"value = 'idle' AND value = 'busy'", // contradictory points
		"value IN ('idle') AND value IN ('busy')",
		"value = 'idle' AND value <> 'idle'",
		"slot = 42",             // outside int range
		"slot > 5 AND slot < 5", // empty interval
		"slot > 5 AND slot < 6", // integer gap
		"slot BETWEEN 7 AND 3",  // inverted BETWEEN
		"load > 1.0 AND load < 0.5",
		"load = 0.5 AND load = 0.7",
		"event_time > '2006-03-16 00:00:00' AND event_time < '2006-03-15 00:00:00'",
		"slot >= 10", // beyond range max
	}
	for _, src := range cases {
		if got := check(t, tbl, src); got != Unsat {
			t.Errorf("CheckRegular(%q) = %v, want unsatisfiable", src, got)
		}
	}
}

func TestUnknownIsConservative(t *testing.T) {
	tbl := testTable(t)
	// Cross-column terms and complex shapes: not proven either way.
	cases := []string{
		"load = load",    // same column both sides (not col-op-lit)
		"load + 1 > 2",   // arithmetic on column
		"mach_id > load", // cross-column (also mixed kinds)
	}
	for _, src := range cases {
		if got := check(t, tbl, src); got == Unsat {
			t.Errorf("CheckRegular(%q) = Unsat; must never be proven unsat", src)
		}
	}
}

func TestLikeHandling(t *testing.T) {
	tbl := testTable(t)
	// Positive LIKE over an unbounded string column: witness instantiation
	// proves Sat.
	if got := check(t, tbl, "mach_id LIKE 'Tao%'"); got != Sat {
		t.Errorf("LIKE 'Tao%%' = %v, want Sat", got)
	}
	if got := check(t, tbl, "mach_id LIKE 'Tao_'"); got != Sat {
		t.Errorf("LIKE 'Tao_' = %v, want Sat", got)
	}
	// LIKE over the finite domain: enumeration is exact.
	if got := check(t, tbl, "value LIKE 'i%'"); got != Sat {
		t.Errorf("value LIKE 'i%%' = %v, want Sat", got)
	}
	if got := check(t, tbl, "value LIKE 'z%'"); got != Unsat {
		t.Errorf("value LIKE 'z%%' = %v, want Unsat", got)
	}
	// Contradictory LIKE + equality on unbounded column: at best Unknown,
	// never Sat (no witness passes), never wrongly Unsat-proven... actually
	// equality gives a point constraint, and the point fails the pattern,
	// so Unsat is provable here.
	if got := check(t, tbl, "mach_id = 'm1' AND mach_id LIKE 'Tao%'"); got != Unsat {
		t.Errorf("point + failing LIKE = %v, want Unsat", got)
	}
}

func TestPointPlusRange(t *testing.T) {
	tbl := testTable(t)
	if got := check(t, tbl, "load = 0.5 AND load > 0.7"); got != Unsat {
		t.Errorf("point outside range = %v, want Unsat", got)
	}
	if got := check(t, tbl, "load = 0.8 AND load > 0.7"); got != Sat {
		t.Errorf("point inside range = %v, want Sat", got)
	}
}

func TestEmptyConjunction(t *testing.T) {
	tbl := testTable(t)
	if got := CheckRegular(nil, "A", tbl); got != Sat {
		t.Errorf("empty conjunction = %v, want Sat", got)
	}
}

func TestCheckConstants(t *testing.T) {
	mk := func(src string) []sqlparser.Expr {
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := dnf.Convert(e)
		return d[0]
	}
	if got := CheckConstants(mk("1 = 2")); got != Unsat {
		t.Errorf("1 = 2 -> %v", got)
	}
	if got := CheckConstants(mk("1 = 1 AND 'a' = 'a'")); got != Sat {
		t.Errorf("tautology -> %v", got)
	}
	if got := CheckConstants(mk("1 = 1 AND 2 = 3")); got != Unsat {
		t.Errorf("mixed -> %v", got)
	}
	if got := CheckConstants(nil); got != Sat {
		t.Errorf("empty -> %v", got)
	}
	if got := CheckConstants(mk("NULL = 1")); got != Unsat {
		t.Errorf("NULL comparison filters all rows -> %v", got)
	}
}

func TestResultString(t *testing.T) {
	if Sat.String() != "satisfiable" || Unsat.String() != "unsatisfiable" || Unknown.String() != "unknown" {
		t.Error("Result.String() labels wrong")
	}
}

func TestStringBoundsNeverFalselyUnsat(t *testing.T) {
	tbl := testTable(t)
	// Exclusive string bounds that are adjacent: provably empty is hard for
	// strings, so the checker must answer Sat (if a witness exists) or
	// Unknown — never Unsat when a value might exist.
	if got := check(t, tbl, "mach_id > 'a' AND mach_id < 'a'"); got != Unsat {
		// lo > hi IS provable even for strings.
		t.Errorf("inverted string interval = %v, want Unsat", got)
	}
	if got := check(t, tbl, "mach_id > 'a' AND mach_id < 'b'"); got != Sat {
		t.Errorf("open string interval = %v, want Sat (witness a\\x00)", got)
	}
}

func TestEmptyIntervalEdgeCases(t *testing.T) {
	tbl := testTable(t)
	cases := []struct {
		src  string
		want Result
	}{
		// Equal bounds, one exclusive: empty.
		{"load >= 0.5 AND load < 0.5", Unsat},
		{"load > 0.5 AND load <= 0.5", Unsat},
		// Equal inclusive bounds: the point remains.
		{"load >= 0.5 AND load <= 0.5", Sat},
		// Int-range domain edges fold into the interval.
		{"slot >= 8 AND slot <= 12", Sat}, // clipped to [8,9]
		{"slot > 9", Unsat},               // above the domain max
		{"slot < 0", Unsat},               // below the domain min
		{"slot > 8 AND slot < 9", Unsat},  // integer gap within domain
		// Time interval edges.
		{"event_time >= '2006-03-15 00:00:00' AND event_time <= '2006-03-15 00:00:00'", Sat},
		{"event_time > '2006-03-15 00:00:00' AND event_time <= '2006-03-15 00:00:00'", Unsat},
	}
	for _, c := range cases {
		if got := check(t, tbl, c.src); got != c.want {
			t.Errorf("CheckRegular(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestCheckConstantsMoreShapes(t *testing.T) {
	mk := func(src string) []sqlparser.Expr {
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := dnf.Convert(e)
		return d[0]
	}
	// Literal TRUE/FALSE terms.
	if got := CheckConstants(mk("TRUE")); got != Sat {
		t.Errorf("TRUE -> %v", got)
	}
	if got := CheckConstants(mk("FALSE")); got != Unsat {
		t.Errorf("FALSE -> %v", got)
	}
	// All comparison operators on constants.
	for src, want := range map[string]Result{
		"1 < 2":     Sat,
		"2 <= 1":    Unsat,
		"3 > 1":     Sat,
		"1 >= 3":    Unsat,
		"1 <> 1":    Unsat,
		"'a' < 'b'": Sat,
	} {
		if got := CheckConstants(mk(src)); got != want {
			t.Errorf("CheckConstants(%q) = %v, want %v", src, got, want)
		}
	}
	// Incomparable constant kinds -> not provable.
	if got := CheckConstants(mk("'a' = 1")); got == Sat {
		t.Errorf("incomparable constants must not be Sat: %v", got)
	}
	// Non-literal shapes (arithmetic) -> Unknown.
	if got := CheckConstants(mk("1 + 1 = 2")); got != Unknown {
		t.Errorf("arithmetic constants -> %v, want unknown", got)
	}
}
