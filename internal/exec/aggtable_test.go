package exec

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// col returns an evaluator reading tuple offset i.
func colAt(i int) Evaluator {
	return func(row []types.Value) (types.Value, error) { return row[i], nil }
}

// oneColRows wraps values into single-column rows.
func oneColRows(vals ...types.Value) [][]types.Value {
	out := make([][]types.Value, len(vals))
	for i, v := range vals {
		out[i] = []types.Value{v}
	}
	return out
}

// drainAgg runs a global aggregate over the values.
func drainAgg(t *testing.T, specs []AggSpec, vals ...types.Value) []types.Value {
	t.Helper()
	rows, err := Drain(&BatchGroupAggregate{
		Src:   tuples(oneColRows(vals...)),
		Specs: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("aggregate emitted %d rows, want 1", len(rows))
	}
	return rows[0]
}

// TestAggSumOverflowFallsBackToFloat pins the explicit int-overflow
// fallback: summing past int64 range must demote to float, never silently
// wrap. (The previous accumulator dual-tracked an always-updated float sum
// and an unchecked int sum, reporting the wrapped int as exact.)
func TestAggSumOverflowFallsBackToFloat(t *testing.T) {
	specs := []AggSpec{
		{Func: sqlparser.FuncSum, Arg: colAt(0)},
		{Func: sqlparser.FuncAvg, Arg: colAt(0)},
	}
	row := drainAgg(t, specs,
		types.NewInt(math.MaxInt64), types.NewInt(1), types.NewInt(2))

	sum := row[0]
	if sum.Kind() != types.KindFloat {
		t.Fatalf("overflowed SUM kind = %s (%v), want FLOAT fallback", sum.Kind(), sum)
	}
	want := float64(math.MaxInt64) + 1 + 2
	if sum.Float() != want {
		t.Errorf("overflowed SUM = %v, want %v", sum.Float(), want)
	}
	if sum.Float() < 0 {
		t.Errorf("SUM wrapped negative: %v", sum)
	}
	if avg := row[1]; avg.Float() != want/3 {
		t.Errorf("overflowed AVG = %v, want %v", avg.Float(), want/3)
	}

	// Below the boundary the sum stays an exact INT.
	row = drainAgg(t, specs, types.NewInt(math.MaxInt64-3), types.NewInt(3))
	if row[0].Kind() != types.KindInt || row[0].Int() != math.MaxInt64 {
		t.Errorf("in-range SUM = %v (%s), want exact INT %d", row[0], row[0].Kind(), int64(math.MaxInt64))
	}
}

// TestAggAvgExactOverInts pins AVG precision over pure-INT input: the mean
// divides the exact integer sum, so values that individually exceed float64's
// integer precision do not drift. Per-row float accumulation computes
// (2^53 + 1) + 1 = 2^53 (both increments round away); the exact path keeps
// 2^53 + 2.
func TestAggAvgExactOverInts(t *testing.T) {
	big := int64(1) << 53
	specs := []AggSpec{
		{Func: sqlparser.FuncSum, Arg: colAt(0)},
		{Func: sqlparser.FuncAvg, Arg: colAt(0)},
	}
	row := drainAgg(t, specs, types.NewInt(big), types.NewInt(1), types.NewInt(1))
	if row[0].Kind() != types.KindInt || row[0].Int() != big+2 {
		t.Fatalf("SUM = %v (%s), want exact INT %d", row[0], row[0].Kind(), big+2)
	}
	wantAvg := float64(big+2) / 3
	if row[1].Float() != wantAvg {
		t.Errorf("AVG = %v, want %v (exact-sum division)", row[1].Float(), wantAvg)
	}
	driftAvg := (float64(big) + 1 + 1) / 3
	if wantAvg == driftAvg {
		t.Fatal("test vector does not distinguish exact from drifted AVG")
	}
}

// TestAggMixedKindSumDemotes pins the mixed INT/FLOAT contract: the first
// float input folds the running exact int sum into the float accumulator,
// and the result kind is FLOAT regardless of input order.
func TestAggMixedKindSumDemotes(t *testing.T) {
	specs := []AggSpec{{Func: sqlparser.FuncSum, Arg: colAt(0)}}
	for _, vals := range [][]types.Value{
		{types.NewInt(1), types.NewInt(2), types.NewFloat(0.5)},
		{types.NewFloat(0.5), types.NewInt(1), types.NewInt(2)},
		{types.NewInt(1), types.NewFloat(0.5), types.NewInt(2)},
	} {
		row := drainAgg(t, specs, vals...)
		if row[0].Kind() != types.KindFloat || row[0].Float() != 3.5 {
			t.Errorf("mixed SUM over %v = %v (%s), want FLOAT 3.5", vals, row[0], row[0].Kind())
		}
	}
}

// TestEmptyInputGlobalAggregate pins SQL's empty-input contract on every
// global path — arguments evaluated, arguments read off their vectors, stats:
// exactly one row, COUNT 0, SUM/AVG/MIN/MAX NULL.
func TestEmptyInputGlobalAggregate(t *testing.T) {
	specs := []AggSpec{
		{Func: sqlparser.FuncCount, Star: true},
		{Func: sqlparser.FuncCount, Arg: colAt(0)},
		{Func: sqlparser.FuncSum, Arg: colAt(0)},
		{Func: sqlparser.FuncAvg, Arg: colAt(0)},
		{Func: sqlparser.FuncMin, Arg: colAt(0)},
		{Func: sqlparser.FuncMax, Arg: colAt(0)},
	}
	check := func(name string, rows [][]types.Value) {
		t.Helper()
		if len(rows) != 1 {
			t.Fatalf("%s: empty input emitted %d rows, want 1", name, len(rows))
		}
		r := rows[0]
		if r[0].Int() != 0 || r[1].Int() != 0 {
			t.Errorf("%s: counts = %v, %v, want 0, 0", name, r[0], r[1])
		}
		for i := 2; i < 6; i++ {
			if !r[i].IsNull() {
				t.Errorf("%s: slot %d = %v, want NULL", name, i, r[i])
			}
		}
	}

	rows, err := Drain(&BatchGroupAggregate{Src: tuples(nil), Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	check("evaluated", rows)

	rows, err = Drain(&BatchGroupAggregate{
		Src: tuples(nil), Specs: specs,
		ArgCols: []int{-1, 0, 0, 0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	check("batch", rows)

	// Stat pushdown over an empty table.
	schema, err := storage.NewSchema([]storage.Column{{Name: "v", Kind: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable("Empty", schema)
	m := txn.NewManager()
	rows, err = Drain(&StatAggScan{
		Table: tbl, Snap: m.ReadSnapshot(), Specs: specs,
		ArgCols: []int{-1, 0, 0, 0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	check("stat", rows)
}

// aggFixture builds a 4-segment sealed INT/TEXT/FLOAT table plus an unsealed
// tail, with NULLs sprinkled in every aggregable column: 400 sealed rows
// (ids 0..399, segment size 100) and 37 tail rows (ids 400..436). name is
// NULL every 7th row, score NULL every 5th.
func aggFixture(t *testing.T) (*storage.Table, *txn.Manager) {
	t.Helper()
	schema, err := storage.NewSchema([]storage.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString},
		{Name: "score", Kind: types.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable("Agg", schema)
	tbl.SetSealThreshold(-1)
	m := txn.NewManager()
	tx := m.Begin()
	names := []string{"idle", "busy", "down"}
	addRows := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			name := types.NewString(names[i%3])
			if i%7 == 0 {
				name = types.Null
			}
			score := types.NewFloat(float64(i%100) / 10)
			if i%5 == 0 {
				score = types.Null
			}
			if err := tx.InsertRow(tbl, storage.NewRow([]types.Value{
				types.NewInt(int64(i)), name, score,
			}, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	addRows(0, 400)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl.SetSealThreshold(100)
	if n := tbl.Seal(); n != 4 {
		t.Fatalf("sealed %d segments, want 4", n)
	}
	tbl.SetSealThreshold(-1) // keep the rest as an unsealed tail
	tx = m.Begin()
	addRows(400, 437)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tbl, m
}

// fixtureSpecs is the standard aggregate battery over aggFixture, with the
// parallel column slice for the batch and stat paths.
func fixtureSpecs() (specs []AggSpec, argCols []int) {
	specs = []AggSpec{
		{Func: sqlparser.FuncCount, Star: true},
		{Func: sqlparser.FuncCount, Arg: colAt(1)},
		{Func: sqlparser.FuncCount, Arg: colAt(2)},
		{Func: sqlparser.FuncSum, Arg: colAt(0)},
		{Func: sqlparser.FuncAvg, Arg: colAt(0)},
		{Func: sqlparser.FuncMin, Arg: colAt(0)},
		{Func: sqlparser.FuncMax, Arg: colAt(0)},
		{Func: sqlparser.FuncMin, Arg: colAt(1)},
		{Func: sqlparser.FuncMax, Arg: colAt(1)},
	}
	argCols = []int{-1, 1, 2, 0, 0, 0, 0, 1, 1}
	return specs, argCols
}

// statAggFor builds a StatAggScan over the fixture for predSQL ("" = none).
func statAggFor(t *testing.T, tbl *storage.Table, snap txn.Snapshot, predSQL string, workers int) *StatAggScan {
	t.Helper()
	specs, argCols := fixtureSpecs()
	op := &StatAggScan{
		Table: tbl, Snap: snap, Specs: specs,
		ArgCols: argCols,
		Workers: workers,
	}
	if predSQL != "" {
		layout := layoutFor(tbl, "a")
		e, err := sqlparser.ParseExpr(predSQL)
		if err != nil {
			t.Fatal(err)
		}
		k, _, _, err := CompileKernel(e, layout)
		if err != nil {
			t.Fatal(err)
		}
		segf, err := CompileSegmentFilter(e, layout, 0, tbl.Schema.NumColumns())
		if err != nil {
			t.Fatal(err)
		}
		op.Kernel, op.SegFilter = k, segf
	}
	return op
}

// refAgg is the baseline for the same aggregate: the reference rows
// (visibleRows) aggregated a value at a time through the evaluators — no
// typed kernel, no zone-map stat.
func refAgg(t *testing.T, tbl *storage.Table, snap txn.Snapshot, predSQL string, keys []Evaluator) [][]types.Value {
	t.Helper()
	specs, _ := fixtureSpecs()
	rows, err := Drain(&BatchGroupAggregate{
		Src:  tuples(visibleRows(t, tbl, snap, predSQL)),
		Keys: keys, Specs: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestStatAggScanMatchesRowPath drives the pushdown coverage matrix over the
// mixed sealed/tail fixture: no predicate (all segments answered from
// stats), a fully covering predicate, a prune/cover/narrow mix, and
// predicates stats cannot help with — all must equal the reference, and
// the classification counters must match the predicate geometry (ids are
// clustered 0..99 / 100..199 / 200..299 / 300..399 per segment).
func TestStatAggScanMatchesRowPath(t *testing.T) {
	tbl, m := aggFixture(t)
	snap := m.ReadSnapshot()
	cases := []struct {
		pred               string
		stat, scan, pruned int
	}{
		{"", 4, 0, 0},
		{"id >= 0", 4, 0, 0},  // covers every segment
		{"id < 400", 4, 0, 0}, // covers every segment, tail filtered
		{"id < 150", 1, 1, 2}, // covers seg 1, narrows seg 2, prunes 3-4
		{"id BETWEEN 100 AND 299", 2, 0, 2},
		{"name IS NOT NULL", 0, 4, 0}, // every segment has NULL names
		{"score > 5.0", 0, 4, 0},      // value predicate: never covering
		{"id <> 250", 3, 1, 0},        // covers all but seg 3
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			op := statAggFor(t, tbl, snap, c.pred, workers)
			rows, err := Drain(op)
			if err != nil {
				t.Fatalf("pred %q: %v", c.pred, err)
			}
			want := refAgg(t, tbl, snap, c.pred, nil)[0]
			if got := RowKey(rows[0]); got != RowKey(want) {
				t.Errorf("pred %q workers=%d:\nstat: %v\nref:  %v", c.pred, workers, rows[0], want)
			}
			if op.StatSegments != c.stat || op.ScannedSegments != c.scan || op.PrunedSegments != c.pruned {
				t.Errorf("pred %q: classified stat=%d scan=%d pruned=%d, want %d/%d/%d",
					c.pred, op.StatSegments, op.ScannedSegments, op.PrunedSegments,
					c.stat, c.scan, c.pruned)
			}
		}
	}
}

// TestStatAggScanMVCCVisibilityGate pins the MVCC proof: a delete inside a
// sealed segment must push that segment off the stats path for snapshots
// that see the delete (the zone stats still include the dead version), while
// older snapshots keep full coverage.
func TestStatAggScanMVCCVisibilityGate(t *testing.T) {
	tbl, m := aggFixture(t)
	before := m.ReadSnapshot()

	// Delete id=150 (second segment) — scan for its row version.
	var victim *storage.Row
	for _, r := range tbl.Snap().Segments[1].Rows {
		if r.Values[0].Int() == 150 {
			victim = r
			break
		}
	}
	if victim == nil {
		t.Fatal("fixture: id=150 not in segment 1")
	}
	tx := m.Begin()
	if err := tx.Delete(tbl, victim); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := m.ReadSnapshot()

	// The pre-delete snapshot still answers every segment from stats.
	op := statAggFor(t, tbl, before, "", 1)
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if op.StatSegments != 4 {
		t.Errorf("pre-delete snapshot: stat segments = %d, want 4", op.StatSegments)
	}
	if rows[0][0].Int() != 437 {
		t.Errorf("pre-delete COUNT(*) = %v, want 437", rows[0][0])
	}

	// The post-delete snapshot must scan the touched segment and count one
	// fewer row — matching the reference.
	op = statAggFor(t, tbl, after, "", 1)
	rows, err = Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if op.StatSegments != 3 || op.ScannedSegments != 1 {
		t.Errorf("post-delete: stat=%d scan=%d, want 3/1", op.StatSegments, op.ScannedSegments)
	}
	if rows[0][0].Int() != 436 {
		t.Errorf("post-delete COUNT(*) = %v, want 436", rows[0][0])
	}
	want := refAgg(t, tbl, after, "", nil)[0]
	if RowKey(rows[0]) != RowKey(want) {
		t.Errorf("post-delete stat row %v != reference %v", rows[0], want)
	}
}

// TestGroupAggregateModesAgree runs a grouped battery (COUNT(*)/COUNT(col)/
// SUM/AVG/MIN/MAX with NULL groups and NULL inputs) through the reference,
// the typed batch kernels and morsel-parallel partial aggregation, and
// requires identical result multisets.
// SUM/AVG run over the INT column only: integer accumulation is exact and
// order-independent, so parallel merge order cannot perturb the comparison.
func TestGroupAggregateModesAgree(t *testing.T) {
	tbl, m := aggFixture(t)
	snap := m.ReadSnapshot()
	layout := layoutFor(tbl, "a")
	keys := []Evaluator{compileOn(t, layout, "name")}
	specs, argCols := fixtureSpecs()

	sorted := func(rows [][]types.Value) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = RowKey(r)
		}
		sort.Strings(out)
		return out
	}

	base := refAgg(t, tbl, snap, "", keys)
	if len(base) != 4 { // idle, busy, down, NULL
		t.Fatalf("reference groups = %d, want 4", len(base))
	}

	batch, err := Drain(&BatchGroupAggregate{
		Src:  &BatchScan{Table: tbl, Snap: snap},
		Keys: keys, KeyCols: []int{1},
		Specs: specs, ArgCols: argCols,
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Drain(&ParallelGroupAggregate{
		Scan: &ParallelScan{Table: tbl, Snap: snap, Workers: 4},
		Keys: keys, KeyCols: []int{1},
		Specs: specs, ArgCols: argCols,
	})
	if err != nil {
		t.Fatal(err)
	}

	want := sorted(base)
	for name, got := range map[string][]string{
		"batch":    sorted(batch),
		"parallel": sorted(par),
	} {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s diverges from the reference\nref: %v\ngot: %v", name, want, got)
		}
	}
}

// TestGroupAggregateAllNullGroup pins COUNT(*) vs COUNT(col) over a group
// whose aggregated column is entirely NULL, and MIN/MAX ignoring NULLs, with
// the arguments evaluated and read off their vectors.
func TestGroupAggregateAllNullGroup(t *testing.T) {
	rows := [][]types.Value{
		{types.NewString("a"), types.Null},
		{types.NewString("a"), types.Null},
		{types.NewString("b"), types.NewInt(7)},
		{types.NewString("b"), types.Null},
	}
	keys := []Evaluator{colAt(0)}
	specs := []AggSpec{
		{Func: sqlparser.FuncCount, Star: true},
		{Func: sqlparser.FuncCount, Arg: colAt(1)},
		{Func: sqlparser.FuncSum, Arg: colAt(1)},
		{Func: sqlparser.FuncMin, Arg: colAt(1)},
		{Func: sqlparser.FuncMax, Arg: colAt(1)},
	}
	check := func(name string, got [][]types.Value) {
		t.Helper()
		if len(got) != 2 {
			t.Fatalf("%s: groups = %d, want 2", name, len(got))
		}
		// First-seen order: group "a" then "b".
		a, b := got[0], got[1]
		if a[1].Int() != 2 || a[2].Int() != 0 || !a[3].IsNull() || !a[4].IsNull() || !a[5].IsNull() {
			t.Errorf("%s: all-NULL group = %v, want [a 2 0 NULL NULL NULL]", name, a)
		}
		if b[2].Int() != 1 || b[3].Int() != 7 || b[4].Int() != 7 || b[5].Int() != 7 {
			t.Errorf("%s: mixed group = %v, want count 1, sum/min/max 7", name, b)
		}
	}

	got, err := Drain(&BatchGroupAggregate{Src: tuples(rows), Keys: keys, Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	check("evaluated", got)
	got, err = Drain(&BatchGroupAggregate{
		Src: tuples(rows), Keys: keys,
		Specs: specs, ArgCols: []int{-1, 1, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	check("batch", got)
}

// TestAggPartialMergePreservesExactness pins that merging partial tables
// combines int sums through the overflow-checked path: two partials whose
// exact sums only overflow when combined must produce the float fallback,
// not a wrapped int.
func TestAggPartialMergePreservesExactness(t *testing.T) {
	specs := []AggSpec{{Func: sqlparser.FuncSum, Arg: colAt(0)}}
	mk := func(v int64) *aggTable {
		tab := newAggTable(nil, nil, specs, nil)
		if err := tab.observeAll(tuples(intRows(v))); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	merged := newAggTable(nil, nil, specs, nil)
	if err := merged.mergeTable(mk(math.MaxInt64 - 5)); err != nil {
		t.Fatal(err)
	}
	if err := merged.mergeTable(mk(10)); err != nil {
		t.Fatal(err)
	}
	out, err := merged.emit()
	if err != nil {
		t.Fatal(err)
	}
	defer PutBatch(out)
	sum := out.Cols[0].Value(out.Sel[0])
	if sum.Kind() != types.KindFloat {
		t.Fatalf("merged overflow SUM = %v (%s), want FLOAT fallback", sum, sum.Kind())
	}
	if sum.Float() < 0 {
		t.Errorf("merged SUM wrapped negative: %v", sum)
	}
}

func TestGroupAggregateDirect(t *testing.T) {
	data := [][]types.Value{
		{types.NewString("a"), types.NewInt(1)},
		{types.NewString("b"), types.NewInt(2)},
		{types.NewString("a"), types.NewInt(3)},
	}
	g := &BatchGroupAggregate{
		Src:  tuples(data),
		Keys: []Evaluator{colAt(0)},
		Specs: []AggSpec{
			{Func: sqlparser.FuncSum, Arg: colAt(1)},
			{Func: sqlparser.FuncCount, Star: true},
			{Func: sqlparser.FuncMin, Arg: colAt(1)},
			{Func: sqlparser.FuncMax, Arg: colAt(1)},
			{Func: sqlparser.FuncAvg, Arg: colAt(1)},
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
	rows, err := Drain(&BatchGroupAggregate{
		Src:   tuples(data),
		Keys:  []Evaluator{colAt(0)},
		Specs: []AggSpec{{Func: sqlparser.FuncCount, Star: true}},
	})
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
	row := drainAgg(t, []AggSpec{{Func: sqlparser.FuncSum, Arg: colAt(0)}}, types.NewInt(1), types.NewFloat(2.5))
	if row[0].Kind() != types.KindFloat || row[0].Float() != 3.5 {
		t.Errorf("sum = %v", row[0])
	}
}

func TestGroupAggregateErrorOnNonNumericSum(t *testing.T) {
	_, err := Drain(&BatchGroupAggregate{
		Src:   tuples(oneColRows(types.NewString("x"))),
		Specs: []AggSpec{{Func: sqlparser.FuncSum, Arg: colAt(0)}},
	})
	if err == nil {
		t.Error("SUM over TEXT should fail")
	}
}

// TestCodedGroupByMatchesReference: GROUP BY over a coded TEXT key resolves
// a segment's groups once per code while the dictionary is shorter than the
// selection and row by row otherwise; NULL keys (code 0, like Dict[0] = ”)
// form their own group. Every path — one sealed segment, a selection shorter
// than the dictionary, the segment decoded from a segment file as OpenDir
// restores it, and parallel partial aggregation over eight-row segments —
// answers exactly what the same rows unsealed do, in the same group order
// for the serial paths, and what the reference does.
func TestCodedGroupByMatchesReference(t *testing.T) {
	sealed, sm := codedTable(t, true)
	tail, tm := codedTable(t, false)
	seg := sealed.Snap().Segments[0]
	if cv := &seg.Cols[1]; cv.Codes == nil || cv.Dict[0] != "" || seg.Zones[1].NullCount == 0 {
		t.Fatal("fixture: want a coded name column with NULL slots and Dict[0] = ''")
	}
	var file bytes.Buffer
	if err := storage.WriteSegmentFile(&file, sealed.Schema, sealed.Snap().Segments); err != nil {
		t.Fatal(err)
	}
	decoded, err := storage.ReadSegmentFile(bytes.NewReader(file.Bytes()), int64(file.Len()), sealed.Schema)
	if err != nil {
		t.Fatal(err)
	}
	restored := storage.NewTable("N", sealed.Schema)
	restored.SetSpill(func() ([]*storage.Segment, []*storage.Row, error) { return decoded, nil, nil }, nil)
	rm := txn.NewManager()
	if err := rm.Begin().Commit(); err != nil { // the bootstrap commit decoded rows are stamped with
		t.Fatal(err)
	}
	eights, em := codedTable(t, false)
	eights.SetSealThreshold(8)
	if n := eights.Seal(); n != 5 {
		t.Fatalf("sealed %d segments, want 5", n)
	}

	layout := layoutFor(sealed, "n")
	keys := []Evaluator{compileOn(t, layout, "name")}
	specs := []AggSpec{
		{Func: sqlparser.FuncCount, Star: true},
		{Func: sqlparser.FuncSum, Arg: colAt(0)},
		{Func: sqlparser.FuncMin, Arg: colAt(0)},
		{Func: sqlparser.FuncMax, Arg: colAt(1)},
	}
	argCols := []int{-1, 0, 0, 1}
	grouped := func(src BatchOperator) []string {
		t.Helper()
		rows, err := Drain(&BatchGroupAggregate{Src: src, Keys: keys, KeyCols: []int{1}, Specs: specs, ArgCols: argCols})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = RowKey(r)
		}
		return out
	}
	for _, pred := range []string{"", "id < 3", "id >= 30"} { // 40 rows, 3 and 10 selected; 6 codes
		var kernel Kernel
		if pred != "" {
			kernel = kernelOn(t, layout, pred)
		}
		want := grouped(&BatchScan{Table: tail, Snap: tm.ReadSnapshot(), Kernel: kernel})
		ref := grouped(tuples(visibleRows(t, tail, tm.ReadSnapshot(), pred)))
		if fmt.Sprint(want) != fmt.Sprint(ref) {
			t.Fatalf("pred %q: unsealed %v, reference %v", pred, want, ref)
		}
		for _, side := range []struct {
			name string
			tbl  *storage.Table
			m    *txn.Manager
		}{{"sealed", sealed, sm}, {"decoded", restored, rm}} {
			if got := grouped(&BatchScan{Table: side.tbl, Snap: side.m.ReadSnapshot(), Kernel: kernel}); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("pred %q, %s: %v, unsealed %v", pred, side.name, got, want)
			}
		}
		par, err := Drain(&ParallelGroupAggregate{
			Scan: &ParallelScan{Table: eights, Snap: em.ReadSnapshot(), Kernel: kernel, Workers: 3},
			Keys: keys, KeyCols: []int{1}, Specs: specs, ArgCols: argCols,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(par))
		for i, r := range par {
			got[i] = RowKey(r)
		}
		sort.Strings(got)
		sorted := append([]string(nil), want...)
		sort.Strings(sorted)
		if fmt.Sprint(got) != fmt.Sprint(sorted) {
			t.Errorf("pred %q, parallel over 8-row segments: %v, unsealed %v", pred, got, sorted)
		}
	}
}
