package exec

import (
	"testing"

	"trac/internal/sqlparser"
	"trac/internal/types"
)

func intRows(vals ...int64) [][]types.Value {
	out := make([][]types.Value, len(vals))
	for i, v := range vals {
		out[i] = []types.Value{types.NewInt(v)}
	}
	return out
}

func TestSeqScanReuseSameResults(t *testing.T) {
	tbl, m := testActivity(t)
	layout := layoutFor(tbl, "a")
	filter := compileOn(t, layout, "value = 'idle'")

	collect := func(reuse bool) []string {
		scan := &SeqScan{Table: tbl, Snap: m.ReadSnapshot(), Filter: filter, Reuse: reuse}
		// Consume through a Project (copying), as the planner guarantees.
		proj := &Project{Child: scan, Exprs: []Evaluator{compileOn(t, layout, "mach_id")}}
		rows, err := Drain(proj)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range rows {
			out = append(out, r[0].Str())
		}
		return out
	}
	a, b := collect(false), collect(true)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestIndexScanReuseSameResults(t *testing.T) {
	tbl, m := testActivity(t)
	tbl.CreateIndex("mach_id")
	keys := []types.Value{types.NewString("m1"), types.NewString("m3")}
	for _, reuse := range []bool{false, true} {
		scan := &IndexScan{Table: tbl, Index: tbl.Index(0), Snap: m.ReadSnapshot(), Keys: keys, Reuse: reuse}
		agg := &Aggregate{Child: scan, Specs: []AggSpec{{Func: sqlparser.FuncCount, Star: true}}}
		rows, err := Drain(agg)
		if err != nil {
			t.Fatal(err)
		}
		if rows[0][0].Int() != 2 {
			t.Errorf("reuse=%v count = %v", reuse, rows[0][0])
		}
	}
}

func TestHashJoinWithReusedProbe(t *testing.T) {
	act, m := testActivity(t)
	rout := routingTable(t, m)
	layout := NewLayout([]Binding{{Name: "r", Table: rout}, {Name: "a", Table: act}})
	width := layout.Width()
	snap := m.ReadSnapshot()
	join := &HashJoin{
		Build:     &SeqScan{Table: rout, Snap: snap, Width: width},
		Probe:     &SeqScan{Table: act, Snap: snap, Offset: layout.Bindings[1].Offset, Width: width, Reuse: true},
		BuildKeys: []Evaluator{compileOn(t, layout, "r.neighbor")},
		ProbeKeys: []Evaluator{compileOn(t, layout, "a.mach_id")},
	}
	rows, err := Drain(join)
	if err != nil {
		t.Fatal(err)
	}
	// Both routing rows join to m3: two outputs, and because HashJoin
	// merges into fresh tuples, the retained rows must not alias the
	// reused probe buffer.
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	off := layout.Bindings[1].Offset
	for _, r := range rows {
		if r[off].Str() != "m3" {
			t.Errorf("probe region corrupted: %v", r[off])
		}
	}
	if rows[0][0].Str() == rows[1][0].Str() {
		t.Errorf("build regions should differ (m1, m2): %v vs %v", rows[0][0], rows[1][0])
	}
}

func TestGroupAggregateDirect(t *testing.T) {
	data := [][]types.Value{
		{types.NewString("a"), types.NewInt(1)},
		{types.NewString("b"), types.NewInt(2)},
		{types.NewString("a"), types.NewInt(3)},
	}
	key := func(row []types.Value) (types.Value, error) { return row[0], nil }
	arg := func(row []types.Value) (types.Value, error) { return row[1], nil }
	g := &GroupAggregate{
		Child: &ValuesOp{RowsData: data},
		Keys:  []Evaluator{key},
		Specs: []AggSpec{
			{Func: sqlparser.FuncSum, Arg: arg},
			{Func: sqlparser.FuncCount, Star: true},
			{Func: sqlparser.FuncMin, Arg: arg},
			{Func: sqlparser.FuncMax, Arg: arg},
			{Func: sqlparser.FuncAvg, Arg: arg},
		},
	}
	rows, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	// First-seen order: a then b.
	if rows[0][0].Str() != "a" || rows[0][1].Int() != 4 || rows[0][2].Int() != 2 {
		t.Errorf("group a = %v", rows[0])
	}
	if rows[0][3].Int() != 1 || rows[0][4].Int() != 3 || rows[0][5].Float() != 2 {
		t.Errorf("group a min/max/avg = %v", rows[0])
	}
	if rows[1][0].Str() != "b" || rows[1][1].Int() != 2 {
		t.Errorf("group b = %v", rows[1])
	}
}

func TestGroupAggregateNullKeysGroupTogether(t *testing.T) {
	data := [][]types.Value{
		{types.Null, types.NewInt(1)},
		{types.Null, types.NewInt(2)},
		{types.NewString("x"), types.NewInt(3)},
	}
	g := &GroupAggregate{
		Child: &ValuesOp{RowsData: data},
		Keys:  []Evaluator{func(r []types.Value) (types.Value, error) { return r[0], nil }},
		Specs: []AggSpec{{Func: sqlparser.FuncCount, Star: true}},
	}
	rows, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("NULL keys should form one group: %v", rows)
	}
	if !rows[0][0].IsNull() || rows[0][1].Int() != 2 {
		t.Errorf("null group = %v", rows[0])
	}
}

func TestGroupAggregateSumFloatPromotion(t *testing.T) {
	data := [][]types.Value{
		{types.NewInt(1)},
		{types.NewFloat(2.5)},
	}
	g := &GroupAggregate{
		Child: &ValuesOp{RowsData: data},
		Specs: []AggSpec{{Func: sqlparser.FuncSum, Arg: func(r []types.Value) (types.Value, error) { return r[0], nil }}},
	}
	rows, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Kind() != types.KindFloat || rows[0][0].Float() != 3.5 {
		t.Errorf("sum = %v", rows[0][0])
	}
}

func TestGroupAggregateErrorOnNonNumericSum(t *testing.T) {
	data := [][]types.Value{{types.NewString("x")}}
	g := &GroupAggregate{
		Child: &ValuesOp{RowsData: data},
		Specs: []AggSpec{{Func: sqlparser.FuncSum, Arg: func(r []types.Value) (types.Value, error) { return r[0], nil }}},
	}
	if _, err := Drain(g); err == nil {
		t.Error("SUM over TEXT should fail")
	}
}
