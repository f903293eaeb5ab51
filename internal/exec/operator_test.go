package exec

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

func compileOn(t *testing.T, layout *Layout, src string) Evaluator {
	t.Helper()
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Compile(e, layout)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// kernelOn compiles a predicate into a batch kernel.
func kernelOn(t *testing.T, layout *Layout, src string) Kernel {
	t.Helper()
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	k, _, _, err := CompileKernel(e, layout)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// drainBatches runs an operator to completion and mints its tuples.
func drainBatches(t *testing.T, op BatchOperator) [][]types.Value {
	t.Helper()
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// tuples is an input over fixed tuples, in batches of at most BatchSize
// tuples over generic vectors, as any operator may emit them.
func tuples(rows [][]types.Value) BatchOperator { return &tupleSource{rows: rows} }

type tupleSource struct {
	rows [][]types.Value
	pos  int
}

func (s *tupleSource) Open() error { s.pos = 0; return nil }

func (s *tupleSource) NextBatch() (*Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	end := min(s.pos+BatchSize, len(s.rows))
	b := GetBatch()
	b.Shape(len(s.rows[s.pos]), end-s.pos)
	for c := range b.Cols {
		b.Cols[c] = b.NewVec(types.KindNull)
		for _, r := range s.rows[s.pos:end] {
			b.Cols[c].Vals = append(b.Cols[c].Vals, r[c])
		}
	}
	b.SelectAll()
	s.pos = end
	return b, nil
}

func (s *tupleSource) Close() error { return nil }

// visibleRows is the reference a scan is held to: the table's row versions
// visible under snap, in heap order, on which pred ("" keeps every one) is
// TRUE — evaluated a row at a time, no operator involved.
func visibleRows(t *testing.T, tbl *storage.Table, snap txn.Snapshot, pred string) [][]types.Value {
	t.Helper()
	var ev Evaluator
	if pred != "" {
		ev = compileOn(t, layoutFor(tbl, "n"), pred)
	}
	var out [][]types.Value
	for _, r := range tbl.Rows() {
		if !snap.Visible(r) {
			continue
		}
		keep, err := EvalPredicate(ev, r.Values)
		if err != nil {
			t.Fatalf("reference %q: %v", pred, err)
		}
		if keep {
			out = append(out, r.Values)
		}
	}
	return out
}

// TestSeqScanVisibilityAndFilter: the sequential scan (BatchScan) sees
// committed versions only and keeps the rows its kernel passes.
func TestSeqScanVisibilityAndFilter(t *testing.T) {
	tbl, m := testActivity(t)
	layout := layoutFor(tbl, "a")

	// Insert an uncommitted row: must not be visible.
	pending := m.Begin()
	ts, _ := types.ParseTime("2006-03-13 00:00:00")
	pending.InsertRow(tbl, storage.NewRow([]types.Value{
		types.NewString("m9"), types.NewString("idle"), types.NewTime(ts), types.NewFloat(0),
	}, 0))

	idle := kernelOn(t, layout, "value = 'idle'")
	rows := drainBatches(t, &BatchScan{Table: tbl, Snap: m.ReadSnapshot(), Kernel: idle})
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (m1, m3): %v", len(rows), rows)
	}
	pending.Commit()
	rows = drainBatches(t, &BatchScan{Table: tbl, Snap: m.ReadSnapshot(), Kernel: idle})
	if len(rows) != 3 {
		t.Fatalf("after commit got %d rows, want 3", len(rows))
	}
}

func TestSeqScanPadding(t *testing.T) {
	tbl, m := testActivity(t)
	rows := drainBatches(t, &BatchScan{Table: tbl, Snap: m.ReadSnapshot(), Offset: 2, Width: 6})
	if len(rows[0]) != 6 {
		t.Fatalf("width = %d", len(rows[0]))
	}
	if !rows[0][0].IsNull() || !rows[0][1].IsNull() {
		t.Error("padding should be NULL")
	}
	if rows[0][2].Kind() != types.KindString {
		t.Error("values should start at offset 2")
	}
}

func TestIndexScanKeys(t *testing.T) {
	tbl, m := testActivity(t)
	tbl.CreateIndex("mach_id")
	rows := drainBatches(t, &IndexScan{
		Table: tbl, Index: tbl.Index(0), Snap: m.ReadSnapshot(),
		Keys: []types.Value{types.NewString("m1"), types.NewString("m3")},
	})
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestIndexScanRange(t *testing.T) {
	tbl, m := testActivity(t)
	tbl.CreateIndex("mach_id")
	rows := drainBatches(t, &IndexScan{
		Table: tbl, Index: tbl.Index(0), Snap: m.ReadSnapshot(),
		Lo: storage.Incl(types.NewString("m2")), Hi: storage.Unbounded,
	})
	if len(rows) != 2 { // m2, m3
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestIndexScanRespectsMVCC(t *testing.T) {
	tbl, m := testActivity(t)
	tbl.CreateIndex("mach_id")
	// Delete m1 and verify the index scan stops returning it, while an old
	// snapshot still sees it.
	oldSnap := m.ReadSnapshot()
	var victim *storage.Row
	for _, r := range tbl.Rows() {
		if r.Values[0].Str() == "m1" {
			victim = r
		}
	}
	tx := m.Begin()
	if err := tx.Delete(tbl, victim); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	rows := drainBatches(t, &IndexScan{Table: tbl, Index: tbl.Index(0), Snap: m.ReadSnapshot(), Keys: []types.Value{types.NewString("m1")}})
	if len(rows) != 0 {
		t.Errorf("new snapshot sees deleted row: %v", rows)
	}
	rows = drainBatches(t, &IndexScan{Table: tbl, Index: tbl.Index(0), Snap: oldSnap, Keys: []types.Value{types.NewString("m1")}})
	if len(rows) != 1 {
		t.Errorf("old snapshot lost row: %v", rows)
	}
}

// TestIndexScanBatches holds the batch index scan to the row-at-a-time
// reference over the shapes the planner builds: a single key; an IN list
// whose duplicate members the planner has folded out of the probe keys, with
// the list itself as the kernel; a range; a LIKE prefix; a key with more
// matches than one batch holds; a filter that is UNKNOWN on NULLs. The hot
// key's versions include ones deleted by a committed, an aborted and an
// in-flight transaction. Every batch holds at most BatchSize tuples, every
// version the index returns is noted visited once, and a scan carries only
// the columns in Need.
func TestIndexScanBatches(t *testing.T) {
	schema, err := storage.NewSchema([]storage.Column{
		{Name: "k", Kind: types.KindString},
		{Name: "v", Kind: types.KindInt},
		{Name: "w", Kind: types.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable("K", schema)
	m := txn.NewManager()
	tx := m.Begin()
	add := func(k string, v int) {
		w := types.NewString(fmt.Sprintf("w%d", v%5))
		if v%3 == 0 {
			w = types.Null
		}
		if err := tx.InsertRow(tbl, storage.NewRow([]types.Value{types.NewString(k), types.NewInt(int64(v)), w}, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < 2500; v++ {
		add("hot", v)
	}
	for i, k := range []string{"a1", "a2", "b1", "c"} {
		add(k, 10_000+i)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	del := func(lo, hi int64) *txn.Txn {
		tx := m.Begin()
		for _, r := range tbl.Rows() {
			if v := r.Values[1].Int(); v >= lo && v < hi {
				if err := tx.Delete(tbl, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return tx
	}
	if err := del(0, 100).Commit(); err != nil {
		t.Fatal(err)
	}
	if err := del(100, 200).Abort(); err != nil {
		t.Fatal(err)
	}
	inflight := del(200, 300)
	defer inflight.Abort()

	snap := m.ReadSnapshot()
	layout := layoutFor(tbl, "n")
	idx := tbl.Index(0)
	str := func(s string) types.Value { return types.NewString(s) }
	sorted := func(rows [][]types.Value) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = RowKey(r)
		}
		sort.Strings(out)
		return out
	}
	for _, c := range []struct {
		name   string
		keys   []types.Value
		lo, hi storage.Bound
		pred   string
		want   int
	}{
		{"single key", []types.Value{str("a2")}, storage.Bound{}, storage.Bound{}, "k = 'a2'", 1},
		{"IN list with duplicate keys", []types.Value{str("a1"), str("b1")}, storage.Bound{}, storage.Bound{}, "k IN ('a1', 'b1', 'a1')", 2},
		{"range", nil, storage.Incl(str("a2")), storage.Incl(str("c")), "k >= 'a2' AND k <= 'c'", 3},
		{"LIKE prefix", nil, storage.Incl(str("a")), storage.Excl(str("b")), "k LIKE 'a%'", 2},
		{"more than a batch", []types.Value{str("hot")}, storage.Bound{}, storage.Bound{}, "k = 'hot'", 2400},
		{"NULL/UNKNOWN filter", []types.Value{str("hot")}, storage.Bound{}, storage.Bound{}, "k = 'hot' AND w <> 'w1'", 1280},
	} {
		scan := &IndexScan{Table: tbl, Index: idx, Snap: snap, Kernel: kernelOn(t, layout, c.pred), Keys: c.keys, Lo: c.lo, Hi: c.hi}
		matched := 0
		if c.keys != nil {
			for _, k := range c.keys {
				matched += len(idx.LookupAt(k, snap.Seq))
			}
		} else {
			idx.Scan(c.lo, c.hi, func(_ types.Value, rows []*storage.Row) bool {
				matched += len(rows)
				return true
			})
		}
		visited := tbl.VersionsVisited()
		if err := scan.Open(); err != nil {
			t.Fatal(err)
		}
		var got [][]types.Value
		for {
			b, err := scan.NextBatch()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if b == nil {
				break
			}
			if b.Len() == 0 || b.Len() > BatchSize {
				t.Fatalf("%s: a batch of %d tuples", c.name, b.Len())
			}
			got = b.AppendRows(got)
			PutBatch(b)
		}
		scan.Close()
		want := visibleRows(t, tbl, snap, c.pred)
		if len(want) != c.want {
			t.Fatalf("%s: fixture gives %d reference rows, want %d", c.name, len(want), c.want)
		}
		if g, w := sorted(got), sorted(want); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s: index scan returned %d rows, reference %d", c.name, len(g), len(w))
		}
		if n := tbl.VersionsVisited() - visited; n != int64(matched) {
			t.Errorf("%s: %d versions noted visited, the index matched %d", c.name, n, matched)
		}
	}

	// Only the Need columns travel: v alone, read by neither the kernel nor
	// anything else.
	scan := &IndexScan{Table: tbl, Index: idx, Snap: snap, Keys: []types.Value{str("hot")}, Offset: 3, Width: 6, Need: []int{4}}
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	for n := 0; ; n++ {
		b, err := scan.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			if n < 3 {
				t.Errorf("2,400 matches came in %d batches", n)
			}
			break
		}
		for c, cv := range b.Cols {
			if (cv != nil) != (c == 4) {
				t.Fatalf("batch carries column %d: %v", c, cv != nil)
			}
		}
		PutBatch(b)
	}
}

func routingTable(t *testing.T, m *txn.Manager) *storage.Table {
	t.Helper()
	schema, err := storage.NewSchema([]storage.Column{
		{Name: "mach_id", Kind: types.KindString},
		{Name: "neighbor", Kind: types.KindString},
		{Name: "event_time", Kind: types.KindTime},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema.SetSourceColumn("mach_id")
	tbl := storage.NewTable("Routing", schema)
	tx := m.Begin()
	for _, r := range [][2]string{{"m1", "m3"}, {"m2", "m3"}} {
		ts, _ := types.ParseTime("2006-03-12 23:20:06")
		tx.InsertRow(tbl, storage.NewRow([]types.Value{
			types.NewString(r[0]), types.NewString(r[1]), types.NewTime(ts),
		}, 0))
	}
	tx.Commit()
	return tbl
}

func TestHashJoinPaperQ2(t *testing.T) {
	// Reproduces the paper's Q2: Routing R joins Activity A on
	// R.neighbor = A.mach_id with R.mach_id = 'm1' AND A.value = 'idle'.
	act, m := testActivity(t)
	rout := routingTable(t, m)
	layout := NewLayout([]Binding{{Name: "r", Table: rout}, {Name: "a", Table: act}})
	width := layout.Width()
	actOffset := layout.Bindings[1].Offset

	snap := m.ReadSnapshot()
	buildScan := &BatchScan{Table: rout, Snap: snap, Width: width,
		Kernel: kernelOn(t, layout, "r.mach_id = 'm1'")}
	probeScan := &BatchScan{Table: act, Snap: snap, Offset: actOffset, Width: width,
		Kernel: kernelOn(t, layout, "a.value = 'idle'")}

	rows := drainBatches(t, &BatchHashJoin{
		Build: buildScan, Probe: probeScan,
		BuildKeys: []Evaluator{compileOn(t, layout, "r.neighbor")},
		ProbeKeys: []Evaluator{compileOn(t, layout, "a.mach_id")},
	})
	if len(rows) != 1 {
		t.Fatalf("got %d joined rows, want 1: %v", len(rows), rows)
	}
	// The joined row should have r.mach_id=m1 and a.mach_id=m3.
	if rows[0][0].Str() != "m1" || rows[0][actOffset].Str() != "m3" {
		t.Errorf("joined row = %v", rows[0])
	}
}

func TestNestedLoopJoinCrossAndPred(t *testing.T) {
	act, m := testActivity(t)
	rout := routingTable(t, m)
	layout := NewLayout([]Binding{{Name: "r", Table: rout}, {Name: "a", Table: act}})
	width := layout.Width()
	snap := m.ReadSnapshot()

	side := func(tbl *storage.Table, offset int) BatchOperator {
		return &BatchScan{Table: tbl, Snap: snap, Offset: offset, Width: width}
	}
	cross := &BatchNestedLoopJoin{Outer: side(rout, 0), Inner: side(act, layout.Bindings[1].Offset)}
	rows, err := Drain(cross)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*3 {
		t.Fatalf("cross product = %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		// Each side's key column comes from the side that carries it.
		if r[0].IsNull() || r[layout.Bindings[1].Offset].IsNull() {
			t.Fatalf("cross product tuple %v lacks a side", r)
		}
	}

	pred := &BatchNestedLoopJoin{
		Outer:  side(rout, 0),
		Inner:  side(act, layout.Bindings[1].Offset),
		Kernel: EvalKernel(compileOn(t, layout, "r.neighbor = a.mach_id")),
	}
	rows, err = Drain(pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // both routing rows join to m3
		t.Fatalf("theta join = %d rows, want 2", len(rows))
	}

	// Only the columns in Need are gathered, each from its own side; with
	// none, the pairs are counted.
	need := &BatchNestedLoopJoin{Outer: side(rout, 0), Inner: side(act, layout.Bindings[1].Offset), Need: []int{1, 3}}
	rows, err = Drain(need)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[1].IsNull() || r[3].IsNull() || !r[0].IsNull() || !r[4].IsNull() {
			t.Fatalf("Need [1 3] gathered %v", r)
		}
	}
	count := &BatchNestedLoopJoin{Outer: side(rout, 0), Inner: side(act, layout.Bindings[1].Offset), Need: []int{}}
	if rows, err = Drain(count); err != nil || len(rows) != 6 {
		t.Fatalf("count-only cross product: %d tuples, %v", len(rows), err)
	}
}

// TestAggregateOperator: global aggregation (no keys) over a scan.
func TestAggregateOperator(t *testing.T) {
	tbl, m := testActivity(t)
	layout := layoutFor(tbl, "a")
	agg := &BatchGroupAggregate{
		Src: &BatchScan{Table: tbl, Snap: m.ReadSnapshot()},
		Specs: []AggSpec{
			{Func: sqlparser.FuncCount, Star: true},
			{Func: sqlparser.FuncMin, Arg: compileOn(t, layout, "load")},
			{Func: sqlparser.FuncMax, Arg: compileOn(t, layout, "load")},
			{Func: sqlparser.FuncSum, Arg: compileOn(t, layout, "load")},
			{Func: sqlparser.FuncAvg, Arg: compileOn(t, layout, "load")},
			{Func: sqlparser.FuncCount, Arg: compileOn(t, layout, "mach_id")},
		},
	}
	rows, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("aggregate emitted %d rows", len(rows))
	}
	r := rows[0]
	if r[0].Int() != 3 {
		t.Errorf("COUNT(*) = %v", r[0])
	}
	if r[1].Float() != 0.1 || r[2].Float() != 0.9 {
		t.Errorf("MIN/MAX = %v/%v", r[1], r[2])
	}
	if diff := r[3].Float() - 1.2; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("SUM = %v", r[3])
	}
	if diff := r[4].Float() - 0.4; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("AVG = %v", r[4])
	}
	if r[5].Int() != 3 {
		t.Errorf("COUNT(col) = %v", r[5])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	tbl, m := testActivity(t)
	layout := layoutFor(tbl, "a")
	agg := &BatchGroupAggregate{
		Src: &BatchScan{Table: tbl, Snap: m.ReadSnapshot(), Kernel: kernelOn(t, layout, "mach_id = 'none'")},
		Specs: []AggSpec{
			{Func: sqlparser.FuncCount, Star: true},
			{Func: sqlparser.FuncMin, Arg: compileOn(t, layout, "load")},
			{Func: sqlparser.FuncSum, Arg: compileOn(t, layout, "load")},
		},
	}
	rows, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 0 {
		t.Errorf("COUNT over empty = %v", rows[0][0])
	}
	if !rows[0][1].IsNull() || !rows[0][2].IsNull() {
		t.Errorf("MIN/SUM over empty should be NULL: %v", rows[0])
	}
}

func TestSortLimitDistinct(t *testing.T) {
	data := [][]types.Value{
		{types.NewInt(3), types.NewString("a")}, {types.NewInt(1), types.NewString("b")}, {types.NewInt(2), types.NewString("c")},
		{types.NewInt(1), types.NewString("d")}, {types.NewInt(3), types.NewString("e")},
	}
	order := func(rows [][]types.Value) string {
		out := ""
		for _, r := range rows {
			out += fmt.Sprint(r[0].Int()) + r[1].Str() + " "
		}
		return out
	}
	// Ties keep their input order, ascending and descending alike.
	sorted := drainBatches(t, &BatchSort{Child: tuples(data), Keys: []SortKey{{Expr: col(0)}}})
	if got := order(sorted); got != "1b 1d 2c 3a 3e " {
		t.Fatalf("sorted = %s", got)
	}
	desc := drainBatches(t, &BatchSort{Child: tuples(data), Keys: []SortKey{{Expr: col(0), Desc: true}}})
	if got := order(desc); got != "3a 3e 2c 1b 1d " {
		t.Errorf("desc = %s", got)
	}

	limited := drainBatches(t, &BatchLimit{Child: tuples(data), N: 2})
	if len(limited) != 2 {
		t.Errorf("limit = %d rows", len(limited))
	}

	// DISTINCT after a sort keeps the first of equal tuples in sorted order,
	// and a LIMIT above it cuts that order.
	keys := &BatchProject{Child: &BatchSort{Child: tuples(data), Keys: []SortKey{{Expr: col(1), Desc: true}}}, Exprs: []Evaluator{col(0)}, Cols: []int{0}}
	distinct := drainBatches(t, &BatchLimit{Child: &BatchDistinct{Child: keys}, N: 2})
	if len(distinct) != 2 || distinct[0][0].Int() != 3 || distinct[1][0].Int() != 1 {
		t.Errorf("sorted distinct, limited = %v", distinct)
	}

	// A limit stops pulling once it is reached: a second batch is never
	// asked for.
	many := make([][]types.Value, BatchSize+1)
	for i := range many {
		many[i] = []types.Value{types.NewInt(int64(i))}
	}
	src := &closeCounter{child: tuples(many)}
	if rows := drainBatches(t, &BatchLimit{Child: src, N: 3}); len(rows) != 3 || src.pulls != 1 {
		t.Errorf("LIMIT 3 over two batches: %d rows, %d pulls", len(rows), src.pulls)
	}
}

func TestUnionSetSemantics(t *testing.T) {
	mk := func(vals ...int64) BatchOperator {
		var rows [][]types.Value
		for _, v := range vals {
			rows = append(rows, []types.Value{types.NewInt(v)})
		}
		return tuples(rows)
	}
	u := &BatchUnion{Children: []BatchOperator{mk(1, 2, 2), mk(2, 3), mk()}}
	rows := drainBatches(t, u)
	if len(rows) != 3 {
		t.Fatalf("union = %v", rows)
	}
	got := fmt.Sprint(rows[0][0].Int(), rows[1][0].Int(), rows[2][0].Int())
	if got != "1 2 3" {
		t.Errorf("union values = %v", got)
	}
}

func TestProjectAndFilter(t *testing.T) {
	tbl, m := testActivity(t)
	layout := layoutFor(tbl, "a")
	proj := &BatchProject{
		Child: &BatchFilter{
			Child:  &BatchScan{Table: tbl, Snap: m.ReadSnapshot()},
			Kernel: EvalKernel(compileOn(t, layout, "value = 'idle'")),
		},
		Exprs: []Evaluator{compileOn(t, layout, "mach_id"), compileOn(t, layout, "load * 10")},
	}
	rows := drainBatches(t, proj)
	if len(rows) != 2 || len(rows[0]) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].Str() != "m1" || rows[0][1].Float() != 1.0 {
		t.Errorf("row0 = %v", rows[0])
	}
}

// TestRowSetAgreesWithTheCanonicalEncoding: the set of tuples a DISTINCT
// keeps (dedup) must treat two tuples as one exactly when AppendKey encodes
// them alike — 3 and 3.0, 0 and -0, NaN and NaN, NULL and NULL are one value;
// 3 and '3', a timestamp and the integer of its nanoseconds, are two.
func TestRowSetAgreesWithTheCanonicalEncoding(t *testing.T) {
	zoo := []types.Value{
		types.Null, types.NewBool(true), types.NewBool(false),
		types.NewInt(3), types.NewFloat(3), types.NewString("3"), types.NewTimeNanos(3),
		types.NewInt(0), types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(math.NaN()), types.NewFloat(-math.NaN()), types.NewFloat(2.5), types.NewFloat(1e300),
		types.NewInt(math.MaxInt64), types.NewFloat(9.007199254740992e15), types.NewInt(9007199254740992),
		types.NewString(""), types.NewString("a"),
	}
	var rows [][]types.Value
	for _, a := range zoo {
		for _, b := range zoo {
			rows = append(rows, []types.Value{a, b}, []types.Value{b, a})
		}
	}
	var want []string
	keys := map[string]bool{}
	for _, r := range rows {
		if !keys[RowKey(r)] {
			keys[RowKey(r)] = true
			want = append(want, RowKey(r))
		}
	}
	got := drainBatches(t, &BatchDistinct{Child: tuples(rows)})
	if len(got) != len(want) {
		t.Fatalf("DISTINCT kept %d tuples, the encoding says %d", len(got), len(want))
	}
	for i, r := range got {
		if RowKey(r) != want[i] {
			t.Fatalf("tuple %d: DISTINCT kept %v, the encoding's first occurrence is %q", i, r, want[i])
		}
	}
}
