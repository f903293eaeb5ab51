package exec

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// reopenCase is one operator run again and again over the same input, as a
// plan kept for reuse is: every run must answer what the first did and count
// what the first counted — no state or counter carries over — and the closed
// operator must hold nothing of the run.
type reopenCase struct {
	name   string
	op     BatchOperator
	sorted bool         // the output order is not fixed (parallel workers)
	counts func() []int // the run's counters
	holds  func() []string
}

// holding names what a closed operator still holds of its run: each name
// whose condition is true.
func holding(conds ...any) []string {
	var out []string
	for i := 0; i < len(conds); i += 2 {
		if conds[i+1].(bool) {
			out = append(out, conds[i].(string))
		}
	}
	return out
}

func nonNil[T comparable](s []T) bool {
	var zero T
	return slices.ContainsFunc(s[:cap(s)], func(v T) bool { return v != zero })
}

func reopenCases(t *testing.T) []reopenCase {
	t.Helper()
	var cases []reopenCase
	add := func(c reopenCase) { cases = append(cases, c) }

	act, am := testActivity(t)
	if err := act.CreateIndex("mach_id"); err != nil {
		t.Fatal(err)
	}
	is := &IndexScan{Table: act, Index: act.Index(0), Snap: am.ReadSnapshot(),
		Keys: []types.Value{types.NewString("m1"), types.NewString("m3")}}
	add(reopenCase{name: "IndexScan", op: is,
		holds: func() []string { return holding("row pointers", nonNil(is.matches)) }})

	agg, gm := aggFixture(t)
	layout := layoutFor(agg, "a")
	kernel := kernelOn(t, layout, "id < 150 OR id >= 400")
	idLow, err := sqlparser.ParseExpr("id < 150")
	if err != nil {
		t.Fatal(err)
	}
	segf, err := CompileSegmentFilter(idLow, layout, 0, agg.Schema.NumColumns())
	if err != nil {
		t.Fatal(err)
	}
	bs := &BatchScan{Table: agg, Snap: gm.ReadSnapshot(), Kernel: kernelOn(t, layout, "id < 150"), SegFilter: segf}
	add(reopenCase{name: "BatchScan", op: bs,
		counts: func() []int { return []int{bs.PrunedSegments, bs.ScannedSegments} },
		holds:  func() []string { return holding("heap units", bs.units != nil) }})

	ps := &ParallelScan{Table: agg, Snap: gm.ReadSnapshot(), Kernel: kernel, Workers: 2}
	add(reopenCase{name: "ParallelScan", op: ps, sorted: true,
		holds: func() []string { return holding("exchange", ps.ex != nil) }})

	ex := &Exchange{Children: []BatchOperator{
		tuples(strRows("a", "b")), tuples(strRows("c")),
	}}
	add(reopenCase{name: "Exchange", op: ex, sorted: true,
		holds: func() []string { return holding("producers", ex.stop != nil) }})

	sa := statAggFor(t, agg, gm.ReadSnapshot(), "id < 150 OR id >= 400", 1)
	add(reopenCase{name: "StatAggScan", op: sa,
		counts: func() []int { return []int{sa.StatSegments, sa.ScannedSegments, sa.PrunedSegments, sa.TailRows} },
		holds:  func() []string { return holding("result", sa.out != nil) }})

	build, probe, bk, pk, _ := joinFixture(t, 300)
	hj := &BatchHashJoin{Build: build(), Probe: probe(), BuildKeys: bk, ProbeKeys: pk}
	add(reopenCase{name: "BatchHashJoin", op: hj,
		counts: func() []int { return []int{hj.Probed} },
		holds:  func() []string { return holding("build side", hj.build != nil, "hash table", hj.idx != nil) }})

	sp := &SemiProbe{
		Src:        tuples([][]types.Value{{types.NewString("b"), types.NewInt(1)}, {types.NewString("c"), types.NewInt(2)}, {types.NewString("b"), types.NewInt(3)}}),
		AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(0)},
		Residual: func(row []types.Value) (types.Value, error) { return types.NewBool(row[1].Int() > 1), nil },
		Width:    2,
	}
	sj := &SemiJoin{Anchor: tuples(strRows("a", "b", "c")), Arms: []SemiArm{{Probes: []*SemiProbe{sp}}}}
	add(reopenCase{name: "SemiJoin", op: sj,
		counts: func() []int { return []int{sp.Probed, boolInt(sp.Exhausted)} },
		holds: func() []string {
			return holding("anchor batch", sj.out != nil, "merged tuple", nonNil(sj.merged),
				"probe state", sj.st.anchor != nil || sj.st.cand != nil || sj.st.idx != nil || nonNil(sj.st.mark))
		}})

	// An anchored union whose second arm narrows the anchor with a kernel:
	// the arm's candidate selection and the emitted marks are the operator's
	// own buffers, and no run may start from what the last one left in them.
	first := &SemiProbe{Src: tuples(strRows("m2")),
		AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(0)}}
	au := &SemiJoin{Anchor: &BatchScan{Table: act, Snap: am.ReadSnapshot()}, Arms: []SemiArm{
		{Probes: []*SemiProbe{first}},
		{Kernel: kernelOn(t, layoutFor(act, "a"), "value = 'idle' AND mach_id <> 'm3'")},
	}}
	add(reopenCase{name: "AnchoredUnionArmKernel", op: au,
		counts: func() []int { return []int{first.Probed} },
		holds: func() []string {
			return holding("anchor batch", au.out != nil, "arm selection", len(au.cand) > 0, "emitted marks", nonNil(au.done))
		}})

	// An anchor past keptAnchor positions (a user query anchored on a fact
	// table) leaves none of its per-position buffers in the closed operator.
	many := make([]string, keptAnchor+1)
	for i := range many {
		many[i] = fmt.Sprintf("s%d", i)
	}
	bigProbe := &SemiProbe{Src: tuples(strRows("s1", many[keptAnchor])),
		AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(0)}}
	big := &SemiJoin{Anchor: tuples(strRows(many...)), Arms: []SemiArm{{Probes: []*SemiProbe{bigProbe}}}}
	add(reopenCase{name: "SemiJoinPastKeptAnchor", op: big,
		counts: func() []int { return []int{bigProbe.Probed} },
		holds: func() []string {
			return holding("emitted marks", cap(big.done) > 0, "arm selection", cap(big.cand) > 0, "probe marks", cap(big.st.mark) > 0)
		}})

	bd := &BatchDistinct{Child: tuples(strRows("a", "b", "a", "", ""))}
	add(reopenCase{name: "BatchDistinct", op: bd,
		holds: func() []string { return holding("deduplicated batch", bd.out != nil) }})

	ga := &BatchGroupAggregate{Src: tuples(strRows("a", "b", "a")),
		Keys: []Evaluator{col(0)}, Specs: []AggSpec{{Func: sqlparser.FuncCount, Star: true}}}
	add(reopenCase{name: "BatchGroupAggregate", op: ga,
		holds: func() []string { return holding("groups", ga.out != nil) }})

	so := &BatchSort{Child: tuples(strRows("c", "a", "b")), Keys: []SortKey{{Expr: col(0)}}}
	add(reopenCase{name: "Sort", op: so,
		holds: func() []string { return holding("sorted batch", so.out != nil) }})

	li := &BatchLimit{Child: tuples(strRows("a", "b", "c")), N: 2}
	add(reopenCase{name: "Limit", op: li,
		counts: func() []int { return []int{int(li.emitted)} }})

	un := &BatchUnion{Children: []BatchOperator{tuples(strRows("a", "b")), tuples(strRows("b", "c"))}}
	add(reopenCase{name: "Union", op: un,
		holds: func() []string { return holding("united batch", un.out != nil) }})

	// Activity against itself: each side carries its own columns only.
	arity := act.Schema.NumColumns()
	nl := &BatchNestedLoopJoin{
		Outer:  &BatchScan{Table: act, Snap: am.ReadSnapshot(), Width: 2 * arity},
		Inner:  &BatchScan{Table: act, Snap: am.ReadSnapshot(), Offset: arity, Width: 2 * arity},
		Kernel: EvalKernel(compileOn(t, NewLayout([]Binding{{Name: "a", Table: act}, {Name: "b", Table: act}}), "a.load < b.load")),
	}
	add(reopenCase{name: "NestedLoopJoin", op: nl,
		holds: func() []string {
			return holding("inner batch", nl.inner != nil, "outer batch", nl.cur != nil, "pairs", nonNil(nl.pos) || nonNil(nl.hit))
		}})

	// The values source of a constant SELECT, under its projection.
	one := &OneRow{}
	add(reopenCase{name: "ValuesOp", op: &BatchProject{Child: one, Exprs: []Evaluator{func([]types.Value) (types.Value, error) { return types.NewInt(1), nil }}},
		holds: func() []string { return holding("tuple", one.out != nil) }})
	return cases
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestReopenCarriesNothingOver runs every operator three times over one
// input: a plan template's tree is opened again after every Close.
func TestReopenCarriesNothingOver(t *testing.T) {
	for _, c := range reopenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			var first string
			var firstCounts []int
			for run := 0; run < 3; run++ {
				rows, err := Drain(c.op)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if len(rows) == 0 {
					t.Fatalf("run %d: no rows; the case tests nothing", run)
				}
				keys := make([]string, len(rows))
				for i, r := range rows {
					keys[i] = RowKey(r)
				}
				if c.sorted {
					sort.Strings(keys)
				}
				got := fmt.Sprint(keys)
				var counts []int
				if c.counts != nil {
					counts = c.counts()
				}
				if c.holds != nil {
					if h := c.holds(); len(h) > 0 {
						t.Errorf("run %d: the closed operator still holds its %v", run, h)
					}
				}
				if run == 0 {
					first, firstCounts = got, counts
					continue
				}
				if got != first {
					t.Errorf("run %d answered %s, run 0 %s", run, got, first)
				}
				if !slices.Equal(counts, firstCounts) {
					t.Errorf("run %d counted %v, run 0 %v", run, counts, firstCounts)
				}
			}
		})
	}
}

// TestSemiJoinKeepsSmallPositionBuffers: over an anchor of at most
// keptAnchor positions a closed SemiJoin keeps its position buffers, zeroed,
// so the next run of a recency template does not allocate them again.
func TestSemiJoinKeepsSmallPositionBuffers(t *testing.T) {
	p := &SemiProbe{Src: tuples(strRows("b")), AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(0)}}
	sj := &SemiJoin{Anchor: tuples(strRows("a", "b", "c")), Arms: []SemiArm{{Probes: []*SemiProbe{p}}}}
	if _, err := Drain(sj); err != nil {
		t.Fatal(err)
	}
	if cap(sj.done) < 3 || cap(sj.cand) < 3 || cap(sj.st.mark) < 3 {
		t.Errorf("closed SemiJoin kept capacities done %d, cand %d, mark %d; want each ≥ 3", cap(sj.done), cap(sj.cand), cap(sj.st.mark))
	}
}

// TestReopenedScansReadTheirNewSnapshot: a scan re-bound to a later snapshot
// between runs — what a plan template's checkout does — sees the rows
// committed in between, and its counters describe the new run alone.
func TestReopenedScansReadTheirNewSnapshot(t *testing.T) {
	tbl, m := aggFixture(t)
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	is := &IndexScan{Table: tbl, Index: tbl.Index(0), Lo: storage.Incl(types.NewInt(390)), Hi: storage.Unbounded}
	bs := &BatchScan{Table: tbl}
	ps := &ParallelScan{Table: tbl, Workers: 2}
	sa := &StatAggScan{Table: tbl, Specs: []AggSpec{{Func: sqlparser.FuncCount, Star: true}}, ArgCols: []int{-1}, Workers: 1}
	scans := []struct {
		name string
		op   BatchOperator
		snap *txn.Snapshot
		rows func([][]types.Value) int
	}{
		{"IndexScan", is, &is.Snap, func(r [][]types.Value) int { return len(r) }},
		{"BatchScan", bs, &bs.Snap, func(r [][]types.Value) int { return len(r) }},
		{"ParallelScan", ps, &ps.Snap, func(r [][]types.Value) int { return len(r) }},
		{"StatAggScan", sa, &sa.Snap, func(r [][]types.Value) int { return int(r[0][0].Int()) }},
	}
	count := func() map[string]int {
		out := map[string]int{}
		for _, s := range scans {
			*s.snap = m.ReadSnapshot()
			rows, err := Drain(s.op)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			out[s.name] = s.rows(rows)
		}
		return out
	}
	before := count()
	tx := m.Begin()
	if err := tx.InsertRow(tbl, storage.NewRow([]types.Value{types.NewInt(1000), types.NewString("new"), types.NewFloat(1)}, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := count()
	for _, s := range scans {
		if after[s.name] != before[s.name]+1 {
			t.Errorf("%s: %d rows before the insert, %d after; want one more", s.name, before[s.name], after[s.name])
		}
	}
	if sa.StatSegments != 4 || sa.TailRows != 38 {
		t.Errorf("StatAggScan counted %d stat-answered segments and %d tail rows, want 4 and 38", sa.StatSegments, sa.TailRows)
	}
}
