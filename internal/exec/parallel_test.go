package exec

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// bigActivity builds an Activity-like table with n committed rows spread
// over 10 machines, alternating idle/busy.
// bigActivity builds n committed Activity rows over ten machines. Below
// DefaultSegmentSize they stay in the tail, one unit per WindowSize rows.
func bigActivity(t *testing.T, n int) (*storage.Table, *txn.Manager) {
	t.Helper()
	schema, err := storage.NewSchema([]storage.Column{
		{Name: "mach_id", Kind: types.KindString},
		{Name: "value", Kind: types.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable("Activity", schema)
	m := txn.NewManager()
	tx := m.Begin()
	for i := 0; i < n; i++ {
		val := "idle"
		if i%2 == 1 {
			val = "busy"
		}
		if err := tx.InsertRow(tbl, storage.NewRow([]types.Value{
			types.NewString(fmt.Sprintf("m%d", i%10)), types.NewString(val),
		}, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tbl, m
}

func intRows(vals ...int64) [][]types.Value {
	out := make([][]types.Value, len(vals))
	for i, v := range vals {
		out[i] = []types.Value{types.NewInt(v)}
	}
	return out
}

func sortedFirstCol(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0].Str() + "|" + r[1].Str()
	}
	sort.Strings(out)
	return out
}

// TestParallelScanMatchesSeqScan: the parallel scan returns the rows a
// sequential pass over the heap (visibleRows) keeps, in some order.
func TestParallelScanMatchesSeqScan(t *testing.T) {
	tbl, m := bigActivity(t, 3*storage.WindowSize-24) // three windows, the last partial
	layout := layoutFor(tbl, "a")
	snap := m.ReadSnapshot()
	for _, filterSQL := range []string{"", "value = 'idle'"} {
		var kernel Kernel
		if filterSQL != "" {
			kernel = kernelOn(t, layout, filterSQL)
		}
		seq := visibleRows(t, tbl, snap, filterSQL)
		par := drainBatches(t, &ParallelScan{
			Table: tbl, Snap: snap, Kernel: kernel, Workers: 4,
		})
		a, b := sortedFirstCol(seq), sortedFirstCol(par)
		if len(a) != len(b) {
			t.Fatalf("filter %q: seq %d rows, parallel %d rows", filterSQL, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("filter %q: row %d: %q vs %q", filterSQL, i, a[i], b[i])
			}
		}
	}
}

func TestParallelScanSnapshotIsolation(t *testing.T) {
	// 1,500 rows, then 1,500 more committed AFTER taking the snapshot: the
	// old snapshot's second window is partial, the new one's full.
	tbl, m := bigActivity(t, 1500)
	old := m.ReadSnapshot()
	tx := m.Begin()
	for i := 0; i < 1500; i++ {
		if err := tx.InsertRow(tbl, storage.NewRow([]types.Value{
			types.NewString("late"), types.NewString("busy"),
		}, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := drainBatches(t, &ParallelScan{Table: tbl, Snap: old, Workers: 4})
	if len(rows) != 1500 {
		t.Errorf("old snapshot sees %d rows, want 1500", len(rows))
	}
	for _, r := range rows {
		if r[0].Str() == "late" {
			t.Fatalf("row committed after snapshot is visible: %v", r)
		}
	}
	now := drainBatches(t, &ParallelScan{Table: tbl, Snap: m.ReadSnapshot(), Workers: 4})
	if len(now) != 3000 {
		t.Errorf("fresh snapshot sees %d rows, want 3000", len(now))
	}
}

func TestParallelScanOutputDoesNotAliasHeap(t *testing.T) {
	tbl, m := bigActivity(t, 2500) // three windows
	snap := m.ReadSnapshot()
	rows := drainBatches(t, &ParallelScan{Table: tbl, Snap: snap, Workers: 3})
	// Clobber every returned tuple; a worker that leaked heap row storage
	// (or reused an output buffer across tuples) corrupts a later scan.
	for _, r := range rows {
		for i := range r {
			r[i] = types.NewString("clobbered")
		}
	}
	again := drainBatches(t, &ParallelScan{Table: tbl, Snap: snap, Workers: 3})
	if len(again) != 2500 {
		t.Fatalf("rows = %d", len(again))
	}
	for _, r := range again {
		if r[0].Str() == "clobbered" || r[1].Str() == "clobbered" {
			t.Fatalf("scan output aliases heap storage: %v", r)
		}
	}
}

// errOp emits one batch of three tuples, then fails.
type errOp struct {
	emitted bool
}

func (o *errOp) Open() error { o.emitted = false; return nil }
func (o *errOp) NextBatch() (*Batch, error) {
	if o.emitted {
		return nil, errors.New("boom")
	}
	o.emitted = true
	src := tupleSource{rows: intRows(1, 2, 3)}
	return src.NextBatch()
}
func (o *errOp) Close() error { return nil }

func TestExchangePropagatesChildError(t *testing.T) {
	ex := &Exchange{Children: []BatchOperator{
		tuples(intRows(1, 2, 3)),
		&errOp{},
	}}
	_, err := Drain(ex)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	// The exchange must be re-openable after a failed run.
	ex2 := &Exchange{Children: []BatchOperator{tuples(intRows(4, 5))}}
	rows, err := Drain(ex2)
	if err != nil || len(rows) != 2 {
		t.Fatalf("clean exchange: %v, %v", rows, err)
	}
}

func TestExchangeEarlyClose(t *testing.T) {
	tbl, m := bigActivity(t, 4000) // four windows
	ps := &ParallelScan{Table: tbl, Snap: m.ReadSnapshot(), Workers: 4}
	if err := ps.Open(); err != nil {
		t.Fatal(err)
	}
	// Read a couple of batches, then abandon the scan; Close must unblock
	// and reap the producer goroutines (the -race run would flag leaks
	// touching freed state).
	for i := 0; i < 2; i++ {
		b, err := ps.NextBatch()
		if err != nil || b == nil {
			t.Fatalf("batch %d: %v err=%v", i, b, err)
		}
		PutBatch(b)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHashJoinParallelBuildMatchesSerial(t *testing.T) {
	act, m := bigActivity(t, 2800) // three windows
	rout := routingTable(t, m)
	layout := NewLayout([]Binding{{Name: "a", Table: act}, {Name: "r", Table: rout}})
	width := layout.Width()
	roff := layout.Bindings[1].Offset
	snap := m.ReadSnapshot()

	drainJoin := func(build BatchOperator) []string {
		rows := drainBatches(t, &BatchHashJoin{
			Build:     build,
			Probe:     &BatchScan{Table: rout, Snap: snap, Offset: roff, Width: width},
			BuildKeys: []Evaluator{compileOn(t, layout, "a.mach_id")},
			ProbeKeys: []Evaluator{compileOn(t, layout, "r.neighbor")},
		})
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%v|%v|%v", r[0], r[1], r[roff])
		}
		sort.Strings(out)
		return out
	}

	serial := drainJoin(&BatchScan{Table: act, Snap: snap, Width: width})
	parallel := drainJoin(&ParallelScan{
		Table: act, Snap: snap, Width: width, Workers: 4,
	})
	if len(serial) == 0 {
		t.Fatal("join produced no rows; fixture broken")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d rows, parallel build %d rows", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("row %d: %q vs %q", i, serial[i], parallel[i])
		}
	}
}

func TestRetainingOperatorsOverParallelScan(t *testing.T) {
	// A sort collects its child's batches and an aggregation keeps its group
	// keys across batches; ParallelScan feeds them from concurrent workers.
	// What the sort collects must be copied out of the workers' batches, and
	// every key the aggregation keeps a copy, or retained values would be
	// recycled underneath them.
	const n = 3600 // four windows
	tbl, m := bigActivity(t, n)
	layout := layoutFor(tbl, "a")
	snap := m.ReadSnapshot()
	scan := func() BatchOperator {
		return &ParallelScan{Table: tbl, Snap: snap, Workers: 4}
	}

	sorted, err := Drain(&BatchSort{
		Child: scan(),
		Keys:  []SortKey{{Expr: compileOn(t, layout, "mach_id")}, {Expr: compileOn(t, layout, "value")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted) != n {
		t.Fatalf("sorted rows = %d", len(sorted))
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1][0].Str() > sorted[i][0].Str() {
			t.Fatalf("sort order broken at %d: %v > %v", i, sorted[i-1][0], sorted[i][0])
		}
	}

	groups, err := Drain(&BatchGroupAggregate{
		Src:   scan(),
		Keys:  []Evaluator{compileOn(t, layout, "mach_id")},
		Specs: []AggSpec{{Func: sqlparser.FuncCount, Star: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 10 {
		t.Fatalf("groups = %d, want 10 machines", len(groups))
	}
	total := int64(0)
	for _, g := range groups {
		total += g[1].Int()
	}
	if total != n {
		t.Errorf("group counts sum to %d, want %d", total, n)
	}
}

func TestParallelDegreeWalk(t *testing.T) {
	tbl, m := bigActivity(t, 100)
	snap := m.ReadSnapshot()
	ps := &ParallelScan{Table: tbl, Snap: snap, Workers: 6}
	plan := &BatchLimit{Child: &BatchSort{Child: &BatchFilter{Child: ps}}}
	if d := ParallelDegree(plan); d != 6 {
		t.Errorf("degree through filter/sort/limit = %d, want 6", d)
	}
	join := &BatchHashJoin{Build: ps, Probe: &BatchScan{Table: tbl, Snap: snap}}
	if d := ParallelDegree(join); d != 6 {
		t.Errorf("degree through join build = %d, want 6", d)
	}
	if d := ParallelDegree(&BatchScan{Table: tbl, Snap: snap}); d != 1 {
		t.Errorf("seq scan degree = %d, want 1", d)
	}
}
