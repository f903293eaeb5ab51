package exec

import (
	"math"
	"slices"
	"testing"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// fuzzPick draws small choices from fuzz bytes; an exhausted input reads 0.
type fuzzPick []byte

func (p *fuzzPick) n(k int) int {
	if len(*p) == 0 {
		return 0
	}
	b := (*p)[0]
	*p = (*p)[1:]
	return int(b) % k
}

var (
	fuzzT0     = fuzzTime("2006-03-15 14:20:05")
	fuzzInts   = []int64{-2, -1, 0, 1, 2, 3, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	fuzzFloats = []float64{-1.5, math.Copysign(0, -1), 0, 0.5, 1, 1.5, 2, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, 1<<53 + 2}
	fuzzStrs   = []string{"", "a", "ab", "abc", "b", "a%", "a_c", "\xff", "ba", "2006-03-15 14:20:05", "2006-03-15"}
	fuzzTimes  = []int64{fuzzT0 - 1, fuzzT0, fuzzT0 + 1, fuzzT0 + 1e9, fuzzTime("2006-03-15")}
	fuzzLikes  = []string{"a%", "a_", "%b", "ab", "", "%", "a%c", "_", "a%%", "\xff%", "%a%", "a_%"}
	fuzzKinds  = []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindTime, types.KindBool}
)

func fuzzTime(s string) int64 {
	ts, err := types.ParseTime(s)
	if err != nil {
		panic(err)
	}
	return ts.UnixNano()
}

// value draws a value of kind k (NULL with probability 1/7).
func (p *fuzzPick) value(k types.Kind) types.Value {
	if p.n(7) == 0 {
		return types.Null
	}
	switch k {
	case types.KindInt:
		return types.NewInt(fuzzInts[p.n(len(fuzzInts))])
	case types.KindFloat:
		return types.NewFloat(fuzzFloats[p.n(len(fuzzFloats))])
	case types.KindString:
		return types.NewString(fuzzStrs[p.n(len(fuzzStrs))])
	case types.KindTime:
		return types.NewTimeNanos(fuzzTimes[p.n(len(fuzzTimes))])
	}
	return types.NewBool(p.n(2) == 1)
}

// literal draws a literal of any kind: mixed numerics against numeric
// columns, timestamp strings against TIMESTAMP ones, and NULL.
func (p *fuzzPick) literal() sqlparser.Expr {
	return &sqlparser.Literal{Val: p.value(fuzzKinds[p.n(len(fuzzKinds))])}
}

// form draws a single-column conjunct over column c.
func (p *fuzzPick) form() sqlparser.Expr {
	col := &sqlparser.ColumnRef{Column: "c"}
	neg := p.n(2) == 1
	switch p.n(5) {
	case 0:
		cmp := &sqlparser.Comparison{Op: sqlparser.CmpOp(p.n(6)), Left: col, Right: p.literal()}
		if neg {
			cmp.Left, cmp.Right, cmp.Op = cmp.Right, cmp.Left, cmp.Op.Flip()
		}
		return cmp
	case 1:
		in := &sqlparser.In{Expr: col, Negated: neg}
		for i := 0; i <= p.n(4); i++ {
			in.List = append(in.List, p.literal())
		}
		return in
	case 2:
		return &sqlparser.Between{Expr: col, Lo: p.literal(), Hi: p.literal(), Negated: neg}
	case 3:
		pat := types.NewString(fuzzLikes[p.n(len(fuzzLikes))])
		return &sqlparser.Like{Expr: col, Pattern: &sqlparser.Literal{Val: pat}, Negated: neg}
	}
	return &sqlparser.IsNull{Expr: col, Negated: neg}
}

// FuzzConstraintMatchesEvaluator: for a random single-column conjunct the
// constraint package reads, over random column values, the typed selection
// loop keeps exactly the rows the row evaluator keeps — over a tail's
// uncoded vectors and over a sealed segment's, coded when TEXT — and the
// sealed segment's zone-map proofs hold: Prune implies no row passes, and
// Covers that every row does.
func FuzzConstraintMatchesEvaluator(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 3, 5, 2, 1, 4, 3, 2, 6})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 8, 1, 7, 1, 3, 2, 9, 1})
	f.Add([]byte{2, 1, 3, 2, 1, 4, 7, 9, 4, 2, 1, 1, 0, 6, 5})
	f.Add([]byte{3, 2, 6, 3, 1, 0, 2, 5, 8, 1, 2, 3, 4, 6, 7, 8})
	f.Add([]byte{4, 1, 4, 2, 1, 3, 5, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzPick(data)
		kind := fuzzKinds[p.n(len(fuzzKinds))]
		source := kind == types.KindString && p.n(2) == 1
		e := p.form()
		vals := make([]types.Value, p.n(17))
		for i := range vals {
			vals[i] = p.value(kind)
		}

		schema, err := storage.NewSchema([]storage.Column{{Name: "id", Kind: types.KindInt}, {Name: "c", Kind: kind}})
		if err != nil {
			t.Fatal(err)
		}
		if source {
			if err := schema.SetSourceColumn("c"); err != nil {
				t.Fatal(err)
			}
		}
		tbl := storage.NewTable("T", schema)
		layout := layoutFor(tbl, "T")
		if _, ok := fuseConjunct(e, layout, 0, 2); !ok {
			return // not a constraint: the Evaluator runs it as is
		}
		ev, err := Compile(e, layout)
		if err != nil {
			t.Fatalf("%s: compile: %v", e.SQL(), err)
		}
		var want []int64
		for i, v := range vals {
			keep, err := EvalPredicate(ev, []types.Value{types.NewInt(int64(i)), v})
			if err != nil {
				t.Fatalf("%s on %v: the evaluator raised %v on a conjunct read as a constraint", e.SQL(), v, err)
			}
			if keep {
				want = append(want, int64(i))
			}
		}

		m := txn.NewManager()
		tx := m.Begin()
		for i, v := range vals {
			tx.InsertRow(tbl, storage.NewRow([]types.Value{types.NewInt(int64(i)), v}, 0))
		}
		tx.Commit()
		kernel, _, _, err := CompileKernel(e, layout)
		if err != nil {
			t.Fatal(err)
		}
		segf, err := CompileSegmentFilter(e, layout, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		scan := func(where string) {
			rows, err := Drain(&BatchScan{Table: tbl, Snap: m.ReadSnapshot(), Kernel: kernel, SegFilter: segf})
			if err != nil {
				t.Fatalf("%s (%s): %v", e.SQL(), where, err)
			}
			var got []int64
			for _, r := range rows {
				got = append(got, r[0].Int())
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s over %v (%s): kept %v, the evaluator %v", e.SQL(), vals, where, got, want)
			}
		}
		scan("tail")
		if tbl.Seal() == 0 {
			return
		}
		scan("sealed")
		seg := tbl.Snap().Segments[0]
		if segf.Prune(seg) && len(want) > 0 {
			t.Fatalf("%s over %v: pruned, but the evaluator keeps %v", e.SQL(), vals, want)
		}
		if segf.Covers(seg) && len(want) != len(vals) {
			t.Fatalf("%s over %v: covered, but the evaluator keeps only %v", e.SQL(), vals, want)
		}
	})
}
