package sat

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// TestVerdictsMatchEnumeration: over random conjunctions of single-column
// terms on one column with an integer-range (at most 64 members) or finite
// domain, Sat means some member of the domain, or NULL, passes every term,
// and Unsat means none does — judged by the executor's own evaluator. A
// conjunction the constraint form states exactly (no LIKE pattern beyond a
// plain prefix) is never Unknown.
func TestVerdictsMatchEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	strs := []string{"", "a", "ab", "abc", "b", "ba", "a%", "a_c", "\xff"}
	floats := []float64{-1.5, 0, 0.5, 1, 1.5, 2, 2.5, 1e300}
	likes := []string{"a%", "a_", "%b", "ab", "", "%", "a%c", "_", "b%"}
	for iter := 0; iter < 4000; iter++ {
		var col storage.Column
		var lits []types.Value
		switch rng.Intn(4) {
		case 0:
			lo := int64(rng.Intn(9) - 4)
			d, _ := types.IntRangeDomain(lo, lo+int64(rng.Intn(64)))
			col = storage.Column{Name: "c", Kind: types.KindInt, Domain: d}
			for i := -6; i <= 70; i += 1 + rng.Intn(8) {
				lits = append(lits, types.NewInt(int64(i)), types.NewFloat(float64(i)+0.5))
			}
		case 1:
			var vals []types.Value
			for i := 0; i < 1+rng.Intn(5); i++ {
				vals = append(vals, types.NewInt(int64(rng.Intn(7)-3)))
			}
			col = storage.Column{Name: "c", Kind: types.KindInt, Domain: types.MustFiniteDomain(vals...)}
			for i := -4; i <= 4; i++ {
				lits = append(lits, types.NewInt(int64(i)), types.NewFloat(float64(i)/2))
			}
		case 2:
			var vals []types.Value
			for i := 0; i < 1+rng.Intn(4); i++ {
				vals = append(vals, types.NewFloat(floats[rng.Intn(len(floats))]))
			}
			col = storage.Column{Name: "c", Kind: types.KindFloat, Domain: types.MustFiniteDomain(vals...)}
			for _, f := range floats {
				lits = append(lits, types.NewFloat(f), types.NewInt(int64(min(f, 9))))
			}
		default:
			var ss []string
			for i := 0; i < 1+rng.Intn(4); i++ {
				ss = append(ss, strs[rng.Intn(len(strs))])
			}
			col = storage.Column{Name: "c", Kind: types.KindString, Domain: types.FiniteStringDomain(ss...)}
			for _, s := range strs {
				lits = append(lits, types.NewString(s))
			}
		}
		lits = append(lits, types.Null)
		lit := func() string { return lits[rng.Intn(len(lits))].SQL() }

		var terms []string
		exact := true
		for i := 0; i < 1+rng.Intn(3); i++ {
			not := []string{"", "NOT "}[rng.Intn(2)]
			switch rng.Intn(5) {
			case 0:
				ops := []string{"=", "<>", "<", "<=", ">", ">="}
				terms = append(terms, fmt.Sprintf("c %s %s", ops[rng.Intn(len(ops))], lit()))
			case 1:
				list := []string{lit()}
				for j := 0; j < rng.Intn(3); j++ {
					list = append(list, lit())
				}
				terms = append(terms, fmt.Sprintf("c %sIN (%s)", not, strings.Join(list, ", ")))
			case 2:
				terms = append(terms, fmt.Sprintf("c %sBETWEEN %s AND %s", not, lit(), lit()))
			case 3:
				if col.Kind != types.KindString {
					continue
				}
				p := likes[rng.Intn(len(likes))]
				if i := strings.IndexAny(p, "%_"); i >= 0 && strings.Trim(p[i:], "%") != "" {
					exact = false // a residual beyond the prefix
				}
				terms = append(terms, fmt.Sprintf("c %sLIKE '%s'", not, p))
			default:
				terms = append(terms, "c IS "+not+"NULL")
			}
		}
		if len(terms) == 0 {
			continue
		}
		checkAgainstEnumeration(t, col, terms, exact)
	}
}

func checkAgainstEnumeration(t *testing.T, col storage.Column, terms []string, exact bool) {
	t.Helper()
	schema, err := storage.NewSchema([]storage.Column{{Name: "src", Kind: types.KindString}, col})
	if err != nil {
		t.Fatal(err)
	}
	schema.SetSourceColumn("src")
	tbl := storage.NewTable("T", schema)
	layout := exec.NewLayout([]exec.Binding{{Name: "A", Table: tbl}})
	exprs := make([]sqlparser.Expr, len(terms))
	evs := make([]exec.Evaluator, len(terms))
	for i, src := range terms {
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		exprs[i] = e
		if evs[i], err = exec.Compile(e, layout); err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
	}
	members, _ := col.Domain.Enumerate()
	var witness types.Value
	found := false
	for _, v := range append(members, types.Null) {
		pass := true
		for _, ev := range evs {
			ok, err := exec.EvalPredicate(ev, []types.Value{types.NewString("s"), v})
			if err != nil {
				t.Fatalf("%v on %v: %v", terms, v, err)
			}
			pass = pass && ok
		}
		if pass {
			witness, found = v, true
			break
		}
	}
	got := CheckRegular(exprs, "A", tbl)
	where := fmt.Sprintf("%s over %v", strings.Join(terms, " AND "), col.Domain)
	switch {
	case got == Sat && !found:
		t.Errorf("%s: Sat, but no member passes", where)
	case got == Unsat && found:
		t.Errorf("%s: Unsat, but %v passes", where, witness)
	case got == Unknown && exact:
		t.Errorf("%s: Unknown, but the form states every term exactly (want %v)", where, map[bool]Result{true: Sat, false: Unsat}[found])
	}
}
