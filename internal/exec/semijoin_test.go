package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// col reads column i of a row.
func col(i int) Evaluator {
	return func(row []types.Value) (types.Value, error) { return row[i], nil }
}

func strRows(vals ...string) [][]types.Value {
	out := make([][]types.Value, len(vals))
	for i, v := range vals {
		out[i] = []types.Value{types.NewString(v)}
		if v == "" {
			out[i][0] = types.Null
		}
	}
	return out
}

func drainSemi(t *testing.T, j *SemiJoin) []string {
	t.Helper()
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0].String()
	}
	return out
}

func TestSemiJoinKeyedEmitsEachAnchorRowOnce(t *testing.T) {
	probe := &SemiProbe{
		Src:        tuples(strRows("b", "", "b", "c", "b", "zz")),
		AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(0)},
	}
	j := &SemiJoin{
		// Two anchor rows share key b; the NULL-keyed one can never match.
		Anchor: tuples(strRows("a", "b", "", "c", "b")),
		Arms:   []SemiArm{{Probes: []*SemiProbe{probe}}},
	}
	for run := 0; run < 2; run++ { // re-openable
		if got := fmt.Sprint(drainSemi(t, j)); got != "[b c b]" {
			t.Errorf("run %d: rows = %s, want [b c b] (anchor order, once each)", run, got)
		}
		// a and the NULL row stay unmarked, so the probe is read to its end.
		if !probe.Exhausted || probe.Probed != 6 {
			t.Errorf("run %d: probed %d rows, exhausted=%v; want all 6", run, probe.Probed, probe.Exhausted)
		}
	}
}

func TestSemiJoinStopsOnceEveryKeyedRowIsMarked(t *testing.T) {
	probe := &SemiProbe{
		Src:        tuples(strRows("b", "a", "x", "y", "z")),
		AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(0)},
	}
	j := &SemiJoin{
		// The NULL-keyed anchor row must not hold the early stop hostage.
		Anchor: tuples(strRows("a", "", "b")),
		Arms:   []SemiArm{{Probes: []*SemiProbe{probe}}},
	}
	if got := fmt.Sprint(drainSemi(t, j)); got != "[a b]" {
		t.Errorf("rows = %s", got)
	}
	if probe.Exhausted || probe.Probed != 2 {
		t.Errorf("probed %d rows, exhausted=%v; want a stop after 2", probe.Probed, probe.Exhausted)
	}
}

func TestSemiJoinExistenceProbes(t *testing.T) {
	anchor := func() BatchOperator { return tuples(strRows("a", "b")) }
	full := &SemiProbe{Src: tuples(strRows("p", "q", "r"))}
	empty := &SemiProbe{Src: tuples(nil)}
	costly := &SemiProbe{Src: tuples(strRows("p"))}

	j := &SemiJoin{Anchor: anchor(), Arms: []SemiArm{{Probes: []*SemiProbe{full}}}}
	if got := fmt.Sprint(drainSemi(t, j)); got != "[a b]" {
		t.Errorf("non-empty probe: rows = %s", got)
	}
	if full.Probed != 1 || full.Exhausted {
		t.Errorf("existence probe read %d rows (exhausted=%v), want 1", full.Probed, full.Exhausted)
	}

	// An empty probe empties the arm, and the probes after it never open.
	j = &SemiJoin{Anchor: anchor(), Arms: []SemiArm{{Probes: []*SemiProbe{empty, costly}}}}
	if got := drainSemi(t, j); len(got) != 0 {
		t.Errorf("empty probe: rows = %v", got)
	}
	if !empty.Exhausted || costly.Probed != 0 {
		t.Errorf("empty.Exhausted=%v costly.Probed=%d", empty.Exhausted, costly.Probed)
	}

	// No probes at all: every anchor row qualifies.
	j = &SemiJoin{Anchor: anchor(), Arms: []SemiArm{{}}}
	if got := fmt.Sprint(drainSemi(t, j)); got != "[a b]" {
		t.Errorf("no probes: rows = %s", got)
	}
}

func TestSemiJoinResidualIsCheckedBeforeMarking(t *testing.T) {
	// Merged tuple: [anchor.k, anchor.n, probe.k, probe.n] — the probe's
	// tuples already have that shape, the anchor is boxed in at offset 0; the
	// residual asks anchor.n < probe.n. The first probe row with key a fails
	// it and must not mark the anchor row; the third one passes.
	mk := func(k string, n int64) []types.Value {
		return []types.Value{types.NewString(k), types.NewInt(n)}
	}
	mkp := func(k string, n int64) []types.Value {
		return append(make([]types.Value, 2), mk(k, n)...)
	}
	residual := func(row []types.Value) (types.Value, error) {
		return types.NewBool(row[1].Int() < row[3].Int()), nil
	}
	keyed := &SemiProbe{
		Src:        tuples([][]types.Value{mkp("a", 1), mkp("b", 9), mkp("a", 7)}),
		AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(2)},
		Residual: residual, AnchorOffset: 0, Width: 4,
	}
	j := &SemiJoin{
		Anchor: tuples([][]types.Value{mk("a", 5), mk("b", 9)}),
		Arms:   []SemiArm{{Probes: []*SemiProbe{keyed}}},
	}
	if got := fmt.Sprint(drainSemi(t, j)); got != "[a]" {
		t.Errorf("keyed residual: rows = %s, want [a]", got)
	}

	// Without keys the residual alone decides, row by row.
	loop := &SemiProbe{
		Src:      tuples([][]types.Value{mkp("x", 6), mkp("y", 10)}),
		Residual: residual, AnchorOffset: 0, Width: 4,
	}
	j = &SemiJoin{
		Anchor: tuples([][]types.Value{mk("a", 5), mk("b", 9), mk("c", 10)}),
		Arms:   []SemiArm{{Probes: []*SemiProbe{loop}}},
	}
	if got := fmt.Sprint(drainSemi(t, j)); got != "[a b]" {
		t.Errorf("unkeyed residual: rows = %s, want [a b]", got)
	}
}

func TestSemiJoinArmsShareOneMarkVector(t *testing.T) {
	first := &SemiProbe{
		Src:        tuples(strRows("a", "b")),
		AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(0)},
	}
	second := &SemiProbe{
		Src:        tuples(strRows("c", "b", "a", "c", "q")),
		AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(0)},
	}
	never := &SemiProbe{Src: tuples(strRows("z"))}
	notD := func(b *Batch) error {
		sel := b.Sel[:0]
		for _, pos := range b.Sel {
			if b.Cols[0].Value(pos).Str() != "d" {
				sel = append(sel, pos)
			}
		}
		b.Sel = sel
		return nil
	}
	j := &SemiJoin{
		Anchor: tuples(strRows("a", "b", "c", "d")),
		Arms: []SemiArm{
			{Probes: []*SemiProbe{first}},
			{Kernel: notD, Probes: []*SemiProbe{second}}, // only c is still open
			{Kernel: notD, Probes: []*SemiProbe{never}},  // nothing is: never opened
		},
	}
	if got := fmt.Sprint(drainSemi(t, j)); got != "[a b c]" {
		t.Errorf("rows = %s, want [a b c]", got)
	}
	if second.Probed != 1 || second.Exhausted {
		t.Errorf("second arm probed %d rows (exhausted=%v); it only had c left to find", second.Probed, second.Exhausted)
	}
	if never.Probed != 0 {
		t.Errorf("third arm had no candidate left but probed %d rows", never.Probed)
	}
}

func TestSemiJoinClosesProbeOnError(t *testing.T) {
	src := &closeCounter{child: &errOp{}} // fails after three rows
	j := &SemiJoin{
		Anchor: tuples(intRows(1, 99)),
		Arms: []SemiArm{{Probes: []*SemiProbe{{
			Src: src, AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(0)},
		}}}},
	}
	if _, err := Drain(j); err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if src.opens != 1 || src.closes != 1 {
		t.Errorf("probe opened %d times, closed %d times", src.opens, src.closes)
	}
}

type closeCounter struct {
	child                BatchOperator
	opens, pulls, closes int
}

func (c *closeCounter) Open() error                { c.opens++; return c.child.Open() }
func (c *closeCounter) NextBatch() (*Batch, error) { c.pulls++; return c.child.NextBatch() }
func (c *closeCounter) Close() error               { c.closes++; return c.child.Close() }

// TestSemiJoinEarlyStopReapsParallelProbe covers an anchor from a parallel
// probe long before the probe is exhausted, and requires that closing it
// there leaves no worker behind. Run under -race in `make check`.
func TestSemiJoinEarlyStopReapsParallelProbe(t *testing.T) {
	tbl, m := bigActivity(t, 40_000) // mach_id cycles m0..m9
	before := runtime.NumGoroutine()
	for run := 0; run < 20; run++ {
		probe := &SemiProbe{
			Src:        &ParallelScan{Table: tbl, Snap: m.ReadSnapshot(), Workers: 4},
			AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(0)},
		}
		j := &SemiJoin{
			Anchor: tuples(strRows("m0", "m3", "m9")),
			Arms:   []SemiArm{{Probes: []*SemiProbe{probe}}},
		}
		if got := fmt.Sprint(drainSemi(t, j)); got != "[m0 m3 m9]" {
			t.Fatalf("rows = %s", got)
		}
		if probe.Exhausted || probe.Probed > 4*BatchSize {
			t.Fatalf("probed %d of 40000 rows (exhausted=%v); expected a stop within the first batches",
				probe.Probed, probe.Exhausted)
		}
	}
	// Exchange.Close returns once every producer has left; only its closer
	// goroutines may still be on their way out.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after 20 early stops", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// TestSemiJoinTakesSealedSegmentsFromSourceSets: a probe keyed on its
// table's source column takes a sealed segment's sources from the zone map,
// serial or parallel, and the attachment lasts one run — the same scan
// opened on its own reads every row. A Residual keeps the probe on the rows.
func TestSemiJoinTakesSealedSegmentsFromSourceSets(t *testing.T) {
	act, m := testActivity(t)
	act.Seal()
	for _, tc := range []struct {
		name     string
		scan     BatchOperator
		residual Evaluator
		meta     int
		probed   int
	}{
		{"serial", &BatchScan{Table: act, Snap: m.ReadSnapshot()}, nil, 1, 0},
		{"parallel", &ParallelScan{Table: act, Snap: m.ReadSnapshot(), Workers: 2}, nil, 1, 0},
		{"residual", &BatchScan{Table: act, Snap: m.ReadSnapshot()},
			func([]types.Value) (types.Value, error) { return types.NewBool(true), nil }, 0, 3},
	} {
		probe := &SemiProbe{
			Src:        tc.scan,
			AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(0)},
			AnchorCols: []int{0}, ProbeCols: []int{0},
			Residual: tc.residual, Width: 4,
		}
		j := &SemiJoin{
			Anchor: tuples(strRows("m9", "m2", "m1")),
			Arms:   []SemiArm{{Probes: []*SemiProbe{probe}}},
		}
		for run := 0; run < 2; run++ {
			if got := fmt.Sprint(drainSemi(t, j)); got != "[m2 m1]" {
				t.Errorf("%s run %d: rows = %s, want [m2 m1]", tc.name, run, got)
			}
			if probe.MetaSegments != tc.meta || probe.Probed != tc.probed || !probe.Exhausted {
				t.Errorf("%s run %d: %d segments from source sets, %d rows read, exhausted=%v; want %d, %d, true",
					tc.name, run, probe.MetaSegments, probe.Probed, probe.Exhausted, tc.meta, tc.probed)
			}
		}
		if rows, err := Drain(tc.scan); err != nil || len(rows) != 3 {
			t.Errorf("%s: the scan alone returned %d rows (err %v), want 3", tc.name, len(rows), err)
		}
	}
}

// TestSemiArmKernelMatchesEvalPredicate: an arm's kernel qualifies exactly
// the anchor tuples on which EvalPredicate of the same expression holds, and
// fails exactly when it fails on a tuple the arm examines. The anchors are
// random rows with NULLs, read through a typed scan (sealed or tail) and
// through the row shim's generic vectors; an earlier keyed arm has already
// emitted some of them, so the kernel narrows a selection with holes.
func TestSemiArmKernelMatchesEvalPredicate(t *testing.T) {
	schema, err := storage.NewSchema([]storage.Column{
		{Name: "sid", Kind: types.KindString},
		{Name: "n", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	exprs := []string{
		"sid NOT IN ('s1', 's3')",
		"sid NOT IN ('s1', NULL)", // never TRUE
		"sid IN ('s2', NULL)",
		"sid LIKE 's1%'",
		"sid NOT LIKE '%2'",
		"sid IS NULL",
		"sid <> 's4' AND n > 2",
		"sid = 's2' OR n < 2",                     // no fused loop: the boxed fallback
		"sid LIKE 's%' AND (n = 1 OR sid = 's5')", // fused, then boxed
		"sid > n",                                 // TEXT against INT: a compare error
		"sid > n AND sid = 's1'",
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		tbl := storage.NewTable("h", schema)
		m := txn.NewManager()
		tx := m.Begin()
		var rows [][]types.Value
		for i, n := 0, rng.Intn(40); i < n; i++ {
			row := []types.Value{types.Null, types.Null}
			if k := rng.Intn(7); k > 0 {
				row[0] = types.NewString(fmt.Sprintf("s%d", k))
			}
			if k := rng.Intn(6); k > 0 {
				row[1] = types.NewInt(int64(k))
			}
			rows = append(rows, row)
			if err := tx.InsertRow(tbl, storage.NewRow(row, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if trial%2 == 1 {
			tbl.Seal()
		}
		layout := layoutFor(tbl, "h")
		emitted := map[string]bool{}
		var first []string
		for k := 1; k <= 6; k++ {
			if rng.Intn(3) == 0 {
				sid := fmt.Sprintf("s%d", k)
				emitted[sid] = true
				first = append(first, sid)
			}
		}
		for _, src := range exprs {
			e, err := sqlparser.ParseExpr(src)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := Compile(e, layout)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			var wantErr error
			for _, row := range rows {
				ok := !row[0].IsNull() && emitted[row[0].Str()]
				if !ok {
					if ok, err = EvalPredicate(ev, row); err != nil && wantErr == nil {
						wantErr = err
					}
				}
				if ok {
					want = append(want, RowKey(row))
				}
			}
			for _, anchor := range []BatchOperator{
				&BatchScan{Table: tbl, Snap: m.ReadSnapshot()},
				tuples(rows),
			} {
				kernel, _, _, err := CompileKernel(e, layout)
				if err != nil {
					t.Fatal(err)
				}
				j := &SemiJoin{Anchor: anchor, Arms: []SemiArm{
					{Probes: []*SemiProbe{{
						Src:        tuples(strRows(first...)),
						AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(0)},
					}}},
					{Kernel: kernel},
				}}
				out, err := Drain(j)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("trial %d, %s over %T: kernel error %v, row by row %v", trial, src, anchor, err, wantErr)
				}
				if err != nil {
					continue
				}
				got := make([]string, len(out))
				for i, row := range out {
					got[i] = RowKey(row)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d, %s over %T (first arm %v):\nkernel:     %q\nrow by row: %q", trial, src, anchor, first, got, want)
				}
			}
		}
	}
}
