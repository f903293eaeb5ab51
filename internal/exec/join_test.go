package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// impureKeyTable holds a TEXT key column that, through the direct storage
// API, also carries BIGINT and DOUBLE values (and NULLs): half sealed — the
// sealed column is stored in the generic form — half in the unsealed tail.
func impureKeyTable(t *testing.T) (*storage.Table, *txn.Manager) {
	t.Helper()
	schema, err := storage.NewSchema([]storage.Column{
		{Name: "k", Kind: types.KindString},
		{Name: "id", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable("T", schema)
	tbl.SetSealThreshold(-1)
	m := txn.NewManager()
	keys := []types.Value{
		types.NewString("a"), types.NewInt(3), types.NewFloat(3), types.Null,
		types.NewString("3"), types.NewFloat(2.5), types.NewString("a"), types.NewInt(4),
	}
	load := func(base int) {
		tx := m.Begin()
		for i, k := range keys {
			if err := tx.InsertRow(tbl, storage.NewRow([]types.Value{k, types.NewInt(int64(base + i))}, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	load(0)
	tbl.Seal()
	load(100)
	if tbl.Snap().Segments[0].Cols[0].Pure {
		t.Fatal("fixture: the sealed key column should be generic")
	}
	return tbl, m
}

// TestBatchHashJoinImpureKeyColumn joins the mixed-kind key column with
// itself: the columnar probe must fall back to exact per-value semantics —
// BIGINT 3 equals DOUBLE 3 but not TEXT '3', NULL equals nothing — and agree
// with a nested-loop join testing key equality tuple for tuple.
func TestBatchHashJoinImpureKeyColumn(t *testing.T) {
	tbl, m := impureKeyTable(t)
	layout := NewLayout([]Binding{{Name: "a", Table: tbl}, {Name: "b", Table: tbl}})
	snap := m.ReadSnapshot()
	ids := func(rows [][]types.Value) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r[1].String() + "=" + r[3].String()
		}
		sort.Strings(out)
		return out
	}
	build := func() BatchOperator { return &BatchScan{Table: tbl, Snap: snap, Width: layout.Width()} }
	probe := func() BatchOperator { return &BatchScan{Table: tbl, Snap: snap, Offset: 2, Width: layout.Width()} }
	// Key equality as a hash join files keys: by their canonical encoding,
	// NULL never equal (a compiled `a.k = b.k` would refuse TEXT vs BIGINT).
	sameKey := func(row []types.Value) (types.Value, error) {
		a, b := row[0], row[2]
		return types.NewBool(!a.IsNull() && !b.IsNull() && RowKey(row[0:1]) == RowKey(row[2:3])), nil
	}
	want, err := Drain(&BatchNestedLoopJoin{Outer: build(), Inner: probe(), Kernel: EvalKernel(sameKey)})
	if err != nil {
		t.Fatal(err)
	}
	// Per copy of the key list: a×a 4, the numeric 3s 4, then '3', 2.5 and 4
	// each with itself; both copies join each other, so ×4.
	if len(want) != 44 {
		t.Fatalf("reference join: %d tuples, want 44", len(want))
	}
	got := drainBatches(t, &BatchHashJoin{
		Build: build(), Probe: probe(),
		BuildKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(2)}, ProbeCols: []int{2},
		Need: []int{1, 3},
	})
	if g, w := ids(got), ids(want); len(g) != len(w) {
		t.Fatalf("columnar join: %d tuples, reference %d", len(g), len(w))
	} else {
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("tuple %d: columnar %s, reference %s", i, g[i], w[i])
			}
		}
	}
}

// TestBatchHashJoinOverNestedLoopOutput: a nested-loop join's pairs feed a
// hash join, each side's columns gathered from the side that carries them;
// the hash join takes each column from the side that holds it.
func TestBatchHashJoinOverNestedLoopOutput(t *testing.T) {
	act, m := testActivity(t)
	r1, r2 := routingTable(t, m), routingTable(t, m)
	layout := NewLayout([]Binding{{Name: "r1", Table: r1}, {Name: "a", Table: act}, {Name: "r2", Table: r2}})
	width, snap := layout.Width(), m.ReadSnapshot()
	scan := func(b int) BatchOperator {
		return &BatchScan{Table: layout.Bindings[b].Table, Snap: snap, Offset: layout.Bindings[b].Offset, Width: width}
	}
	got := drainBatches(t, &BatchHashJoin{
		Build:     scan(2),
		Probe:     &BatchNestedLoopJoin{Outer: scan(0), Inner: scan(1)},
		BuildKeys: []Evaluator{compileOn(t, layout, "r2.neighbor")},
		ProbeKeys: []Evaluator{compileOn(t, layout, "a.mach_id")},
	})
	want, err := Drain(&BatchNestedLoopJoin{
		Outer:  &BatchNestedLoopJoin{Outer: scan(0), Inner: scan(1)},
		Inner:  scan(2),
		Kernel: EvalKernel(compileOn(t, layout, "r2.neighbor = a.mach_id")),
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := func(rows [][]types.Value) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = RowKey(r)
		}
		sort.Strings(out)
		return out
	}
	// Both routing rows point at m3: 2 × 1 × 2 tuples, none with a NULL.
	if g, w := keys(got), keys(want); len(w) != 4 || fmt.Sprint(g) != fmt.Sprint(w) {
		t.Errorf("hash join over nested-loop output:\n got %v\nwant %v", g, w)
	}
}

// failingOp is an operator whose first pull fails at once: a build or probe
// side that hits a run-time error (arithmetic on TEXT, say).
type failingOp struct{}

func (failingOp) Open() error                { return nil }
func (failingOp) NextBatch() (*Batch, error) { return nil, errors.New("boom") }
func (failingOp) Close() error               { return nil }

// settledGoroutines waits for the goroutine count to fall back to at most
// base (exiting workers need a moment to be reaped) and returns the count.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestFailedOpenReapsScanWorkers: a join opens its probe — a ParallelScan
// starts its workers — before materializing the other input. When that
// fails, Open returns the error and nobody above will ever call Close
// (Drain does not close what failed to open), so the join itself must close
// the probe; before it did, every failed query left its scan workers
// blocked on the exchange forever.
func TestFailedOpenReapsScanWorkers(t *testing.T) {
	tbl, m := bigActivity(t, 4000)
	probe := func() *ParallelScan {
		return &ParallelScan{Table: tbl, Snap: m.ReadSnapshot(), Workers: 3}
	}
	keys := []Evaluator{col(0)}
	joins := map[string]func() BatchOperator{
		"BatchHashJoin": func() BatchOperator {
			return &BatchHashJoin{Build: failingOp{}, Probe: probe(), BuildKeys: keys, ProbeKeys: keys}
		},
		"NestedLoopJoin": func() BatchOperator {
			return &BatchNestedLoopJoin{Outer: probe(), Inner: failingOp{}}
		},
		// The probe side failing at run time goes through Drain's Close.
		"probe-side": func() BatchOperator {
			return &BatchHashJoin{Build: probe(), Probe: failingOp{}, BuildKeys: keys, ProbeKeys: keys}
		},
	}
	for name, mk := range joins {
		base := runtime.NumGoroutine()
		for i := 0; i < 10; i++ {
			if _, err := Drain(mk()); err == nil || err.Error() != "boom" {
				t.Fatalf("%s: err = %v, want boom", name, err)
			}
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("%s: %d goroutines after ten failed runs, %d before", name, n, base)
		}
	}
}
