package exec

import (
	"testing"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// intBatch builds a batch with one owned BIGINT column holding 0..n-1.
func intBatch(n int) *Batch {
	b := GetBatch()
	b.Shape(1, n)
	c := b.NewVec(types.KindInt)
	vecResize(c, n)
	for i := 0; i < n; i++ {
		vecSet(c, i, types.NewInt(int64(i)))
	}
	b.Cols[0] = c
	b.SelectAll()
	return b
}

func TestBatchSelectionAndBoxing(t *testing.T) {
	b := intBatch(10)
	defer PutBatch(b)
	if b.Len() != 10 {
		t.Fatalf("Len = %d, want 10", b.Len())
	}
	// Narrow the selection to even positions; Value/AppendRows follow Sel.
	sel := b.Sel[:0]
	for _, pos := range b.Sel {
		if b.Cols[0].I64[pos]%2 == 0 {
			sel = append(sel, pos)
		}
	}
	b.Sel = sel
	if b.Len() != 5 {
		t.Fatalf("after narrowing Len = %d, want 5", b.Len())
	}
	if got := b.Cols[0].Value(b.Sel[2]).Int(); got != 4 {
		t.Errorf("third selected value = %d, want 4", got)
	}
	rows := b.AppendRows(nil)
	if len(rows) != 5 || rows[4][0].Int() != 8 {
		t.Errorf("AppendRows = %v, want the five even values", rows)
	}
}

// TestBatchPoolResetDropsVectors pins what a recycled batch forgets: its
// columns (viewed or owned), its selection, and the contents of the vectors
// it owns — a pooled batch must not pin a result or a heap snapshot.
func TestBatchPoolResetDropsVectors(t *testing.T) {
	b := GetBatch()
	b.Shape(2, 1)
	c := b.NewVec(types.KindString)
	vecResize(c, 1)
	vecSet(c, 0, types.NewString("x"))
	b.Cols[1] = c
	b.SelectAll()
	// A projection shortens Cols; the slot beyond must still be dropped.
	b.Cols = b.Cols[:1]
	PutBatch(b)
	if len(c.Str) != 0 || c.Str[:1][0] != "" {
		t.Errorf("owned vector keeps its strings after PutBatch: %q", c.Str[:1])
	}
	if b.Len() != 0 || len(b.Cols) != 0 || b.Cols[:2][1] != nil {
		t.Errorf("pooled batch not reset: len=%d cols=%v", b.Len(), b.Cols[:2])
	}
}

// TestVecSetDemotesOnKindMismatch: a value of another kind than declared
// (possible only through the direct storage API) turns the vector generic,
// keeping every earlier value, NULLs included.
func TestVecSetDemotesOnKindMismatch(t *testing.T) {
	b := GetBatch()
	defer PutBatch(b)
	b.Shape(1, 0)
	c := b.NewVec(types.KindInt)
	vals := []types.Value{types.NewInt(1), types.Null, types.NewString("two"), types.NewInt(3)}
	vecResize(c, len(vals))
	for i, v := range vals {
		vecSet(c, i, v)
	}
	if c.Pure {
		t.Fatal("vector still pure after a TEXT value in a BIGINT column")
	}
	want := []string{"1", "NULL", "two", "3"}
	for i, w := range want {
		if got := c.Value(i).String(); got != w {
			t.Errorf("value %d = %s, want %s", i, got, w)
		}
	}
}

// TestBatchScanMatchesSeqScan: the batch scan returns the rows a sequential
// pass over the heap (visibleRows) keeps, in heap order.
func TestBatchScanMatchesSeqScan(t *testing.T) {
	tbl, m := bigActivity(t, 5000)
	layout := layoutFor(tbl, "a")
	batch := drainBatches(t, &BatchScan{Table: tbl, Snap: m.ReadSnapshot(), Kernel: kernelOn(t, layout, "value = 'idle'")})
	row := visibleRows(t, tbl, m.ReadSnapshot(), "value = 'idle'")
	if len(batch) != len(row) {
		t.Fatalf("batch %d rows, row %d rows", len(batch), len(row))
	}
	for i := range batch {
		if batch[i][0].Str() != row[i][0].Str() {
			t.Fatalf("row %d differs: %v vs %v", i, batch[i], row[i])
		}
	}
}

func TestBatchScanPadsWiderLayouts(t *testing.T) {
	tbl, m := testActivity(t)
	rows, err := Drain(&BatchScan{Table: tbl, Snap: m.ReadSnapshot(), Offset: 2, Width: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0]) != 6 {
		t.Fatalf("width = %d, want 6", len(rows[0]))
	}
	if !rows[0][0].IsNull() || !rows[0][1].IsNull() {
		t.Error("padding should be NULL")
	}
	if rows[0][2].Kind() != types.KindString {
		t.Error("values should start at offset 2")
	}
}

func TestBatchProjectMatchesProject(t *testing.T) {
	tbl, m := testActivity(t)
	layout := layoutFor(tbl, "a")
	exprs := []Evaluator{compileOn(t, layout, "mach_id"), compileOn(t, layout, "load * 2")}
	batch := drainBatches(t, &BatchProject{
		Child: &BatchScan{Table: tbl, Snap: m.ReadSnapshot()},
		Exprs: exprs,
	})
	row := project(t, visibleRows(t, tbl, m.ReadSnapshot(), ""), exprs)
	if len(batch) != len(row) {
		t.Fatalf("batch %d rows, row %d", len(batch), len(row))
	}
	for i := range batch {
		if batch[i][0].Str() != row[i][0].Str() || batch[i][1].Float() != row[i][1].Float() {
			t.Fatalf("row %d differs: %v vs %v", i, batch[i], row[i])
		}
	}
}

// project evaluates the expressions over each tuple: the row-at-a-time
// reference of a projection.
func project(t *testing.T, rows [][]types.Value, exprs []Evaluator) [][]types.Value {
	t.Helper()
	out := make([][]types.Value, len(rows))
	for i, r := range rows {
		out[i] = make([]types.Value, len(exprs))
		for j, e := range exprs {
			var err error
			if out[i][j], err = e(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// distinct keeps the first of the tuples RowKey encodes alike: the
// reference of DISTINCT.
func distinct(rows [][]types.Value) [][]types.Value {
	seen := map[string]bool{}
	var out [][]types.Value
	for _, r := range rows {
		if !seen[RowKey(r)] {
			seen[RowKey(r)] = true
			out = append(out, r)
		}
	}
	return out
}

// joinFixture builds the two-sided padded scans and key evaluators for a
// mach_id equijoin of bigActivity against itself, and the reference: a
// nested-loop join over the same scans, testing key equality on every pair.
func joinFixture(t *testing.T, n int) (build, probe func() BatchOperator, buildKeys, probeKeys []Evaluator, ref [][]types.Value) {
	t.Helper()
	tbl, m := bigActivity(t, n)
	layout := NewLayout([]Binding{{Name: "a", Table: tbl}, {Name: "b", Table: tbl}})
	width := layout.Width()
	arity := tbl.Schema.NumColumns()
	build = func() BatchOperator {
		return &BatchScan{Table: tbl, Snap: m.ReadSnapshot(), Offset: 0, Width: width}
	}
	probe = func() BatchOperator {
		return &BatchScan{Table: tbl, Snap: m.ReadSnapshot(), Offset: arity, Width: width}
	}
	ref, err := Drain(&BatchNestedLoopJoin{
		Outer: build(), Inner: probe(),
		Kernel: EvalKernel(compileOn(t, layout, "a.mach_id = b.mach_id")),
	})
	if err != nil {
		t.Fatal(err)
	}
	bk, err := Compile(&sqlparser.ColumnRef{Table: "a", Column: "mach_id"}, layout)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := Compile(&sqlparser.ColumnRef{Table: "b", Column: "mach_id"}, layout)
	if err != nil {
		t.Fatal(err)
	}
	return build, probe, []Evaluator{bk}, []Evaluator{pk}, ref
}

// TestBatchHashJoinMatchesRowHashJoin: the hash join returns the multiset of
// joined tuples the nested-loop reference does.
func TestBatchHashJoinMatchesRowHashJoin(t *testing.T) {
	build, probe, bk, pk, rowRows := joinFixture(t, 300)
	batchRows := drainBatches(t, &BatchHashJoin{
		Build: build(), Probe: probe(), BuildKeys: bk, ProbeKeys: pk,
	})
	if len(batchRows) != len(rowRows) {
		t.Fatalf("hash join %d rows, reference %d", len(batchRows), len(rowRows))
	}
	seen := make(map[string]int)
	for _, r := range batchRows {
		seen[RowKey(r)]++
	}
	for _, r := range rowRows {
		seen[RowKey(r)]--
	}
	for k, v := range seen {
		if v != 0 {
			t.Fatalf("multiset mismatch at %q: %+d", k, v)
		}
	}
}

// TestBatchHashJoinGathersOnlyNeed checks the pruned join output: with
// nothing needed the batches carry a selection and no column (the COUNT(*)
// shape), and with one column from each side exactly those two are boxed.
func TestBatchHashJoinGathersOnlyNeed(t *testing.T) {
	build, probe, bk, pk, want := joinFixture(t, 300)
	tbl, _ := bigActivity(t, 300)
	arity := tbl.Schema.NumColumns()

	count := &BatchHashJoin{
		Build: build(), Probe: probe(), BuildKeys: bk, ProbeKeys: pk,
		ProbeCols: []int{arity}, Need: []int{},
	}
	if err := count.Open(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		b, err := count.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for c, cv := range b.Cols {
			if cv != nil {
				t.Fatalf("count-only batch carries column %d", c)
			}
		}
		n += b.Len()
		PutBatch(b)
	}
	count.Close()
	if n != len(want) || count.Probed != 300 {
		t.Fatalf("count-only join: %d tuples from %d probes, want %d from 300", n, count.Probed, len(want))
	}

	// a.value (build side) and b.mach_id (probe side).
	need := []int{1, arity}
	got := drainBatches(t, &BatchHashJoin{
		Build: build(), Probe: probe(), BuildKeys: bk, ProbeKeys: pk,
		ProbeCols: []int{arity}, Need: need,
	})
	seen := make(map[string]int)
	for _, r := range want {
		seen[RowKey([]types.Value{r[1], r[arity]})]++
	}
	for _, r := range got {
		for c, v := range r {
			if c != 1 && c != arity && !v.IsNull() {
				t.Fatalf("column %d gathered without being needed: %v", c, r)
			}
		}
		seen[RowKey([]types.Value{r[1], r[arity]})]--
	}
	for k, v := range seen {
		if v != 0 {
			t.Fatalf("multiset mismatch at %q: %+d", k, v)
		}
	}
}

func TestExchangeBatchChildren(t *testing.T) {
	tbl, m := bigActivity(t, 4000)
	ps := &ParallelScan{Table: tbl, Snap: m.ReadSnapshot(), Workers: 4}
	if err := ps.Open(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		b, err := ps.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Len() == 0 {
			t.Fatal("batch contract violated: empty batch from exchange")
		}
		total += b.Len()
		PutBatch(b)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if total != 4000 {
		t.Errorf("rows through batched exchange = %d, want 4000", total)
	}
}

func TestBatchParallelDegree(t *testing.T) {
	tbl, m := bigActivity(t, 1000)
	snap := m.ReadSnapshot()
	ps := &ParallelScan{Table: tbl, Snap: snap, Workers: 6}
	root := &BatchProject{
		Child: &BatchFilter{Child: ps},
		Exprs: nil,
	}
	if got := ParallelDegree(root); got != 6 {
		t.Errorf("ParallelDegree through batch pipeline = %d, want 6", got)
	}
	join := &BatchHashJoin{Build: &BatchScan{Table: tbl, Snap: snap}, Probe: ps}
	if got := ParallelDegree(join); got != 6 {
		t.Errorf("ParallelDegree through batch join probe = %d, want 6", got)
	}
}

// TestDrainSizesResultFromKnownBound: an operator that has materialized its
// output (an aggregate's groups, a semi-join's qualifying anchor rows) hands
// it over as one batch, through the operators above it, so Drain mints the
// result in one allocation sized for it instead of growing it from nil.
func TestDrainSizesResultFromKnownBound(t *testing.T) {
	tbl, m := bigActivity(t, 3000)
	snap := m.ReadSnapshot()
	groups := drainBatches(t, &BatchProject{
		Child: &BatchGroupAggregate{
			Src:  &BatchScan{Table: tbl, Snap: snap},
			Keys: []Evaluator{col(0)}, KeyCols: []int{0},
			Specs: []AggSpec{{Func: "COUNT", Star: true}},
		},
		Exprs: []Evaluator{col(0), col(1)},
	})
	if len(groups) != 10 || cap(groups) != 10 {
		t.Errorf("aggregate: len %d cap %d, want 10/10", len(groups), cap(groups))
	}
	semi := &SemiJoin{
		Anchor: &BatchScan{Table: tbl, Snap: snap},
		Arms: []SemiArm{{Probes: []*SemiProbe{{
			Src:        tuples(strRows("m3", "m4")),
			AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(0)},
			AnchorCols: []int{0}, ProbeCols: []int{0},
		}}}},
	}
	rows := drainBatches(t, &BatchDistinct{Child: &BatchProject{
		Child: semi, Exprs: []Evaluator{col(0), col(1)}, Cols: []int{0, 1},
	}})
	// 600 anchor rows qualify; DISTINCT keeps 2 of them.
	if len(rows) != 2 || cap(rows) != 2 {
		t.Errorf("semi-join under DISTINCT: len %d cap %d, want 2/2", len(rows), cap(rows))
	}
}

// TestBatchDistinctMatchesRowDistinct holds the columnar DISTINCT to the
// row-by-row reference for every projection of a table with NULLs in every column,
// sealed (typed vectors) and not, and over boxed tuples whose one column
// mixes kinds: NULL equals NULL, 3 equals 3.0 but not '3', and the first
// occurrence of each tuple is the one kept, in input order.
func TestBatchDistinctMatchesRowDistinct(t *testing.T) {
	render := func(rows [][]types.Value) string {
		out := ""
		for _, r := range rows {
			out += RowKey(r) + "\n"
		}
		return out
	}
	tbl, m := nullActivity(t)
	// Repeat every row so that each projection has duplicates.
	tx := m.Begin()
	for _, r := range tbl.Rows() {
		if err := tx.InsertRow(tbl, storage.NewRow(r.Values, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := m.ReadSnapshot()
	for _, sealed := range []bool{false, true} {
		if sealed {
			tbl.Seal()
		}
		for _, cols := range [][]int{{1}, {2, 1}, {3}, {4, 3}, {5, 1}, {1, 2, 3, 4, 5}, {0}} {
			exprs := make([]Evaluator, len(cols))
			for i, c := range cols {
				exprs[i] = col(c)
			}
			want := distinct(project(t, visibleRows(t, tbl, snap, ""), exprs))
			got, err := Drain(&BatchDistinct{Child: &BatchProject{
				Child: &BatchScan{Table: tbl, Snap: snap}, Exprs: exprs, Cols: cols,
			}})
			if err != nil {
				t.Fatal(err)
			}
			if render(got) != render(want) {
				t.Errorf("sealed=%v columns %v:\ncolumnar:\n%srow:\n%s", sealed, cols, render(got), render(want))
			}
		}
	}

	mixed := [][]types.Value{
		{types.NewInt(3)}, {types.NewFloat(3)}, {types.NewString("3")}, {types.Null},
		{types.NewFloat(2.5)}, {types.Null}, {types.NewInt(3)}, {types.NewString("3")},
	}
	want := distinct(mixed)
	got, err := Drain(&BatchDistinct{Child: tuples(mixed)})
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) || len(got) != 4 {
		t.Errorf("mixed kinds:\ncolumnar:\n%srow:\n%s", render(got), render(want))
	}
}
