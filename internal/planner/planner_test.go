package planner

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// fixture builds a catalog with Activity, Routing and Heartbeat and some
// data, returning (planner, manager).
func fixture(t *testing.T) (*Planner, *txn.Manager) {
	t.Helper()
	cat := storage.NewCatalog()
	mgr := txn.NewManager()

	mk := func(name string, cols []storage.Column, srcCol string) *storage.Table {
		s, err := storage.NewSchema(cols)
		if err != nil {
			t.Fatal(err)
		}
		if srcCol != "" {
			s.SetSourceColumn(srcCol)
		}
		tbl := storage.NewTable(name, s)
		if err := cat.Create(tbl); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	act := mk("Activity", []storage.Column{
		{Name: "mach_id", Kind: types.KindString},
		{Name: "value", Kind: types.KindString},
		{Name: "event_time", Kind: types.KindTime},
	}, "mach_id")
	rout := mk("Routing", []storage.Column{
		{Name: "mach_id", Kind: types.KindString},
		{Name: "neighbor", Kind: types.KindString},
	}, "mach_id")
	hb := mk("Heartbeat", []storage.Column{
		{Name: "sid", Kind: types.KindString},
		{Name: "recency", Kind: types.KindTime},
	}, "")

	tx := mgr.Begin()
	ts, _ := types.ParseTime("2006-03-15 12:00:00")
	for i := 1; i <= 20; i++ {
		val := "busy"
		if i%2 == 0 {
			val = "idle"
		}
		name := fmt.Sprintf("m%d", i)
		tx.InsertRow(act, storage.NewRow([]types.Value{
			types.NewString(name), types.NewString(val), types.NewTimeNanos(int64(i) * 1e9),
		}, 0))
		tx.InsertRow(rout, storage.NewRow([]types.Value{
			types.NewString(name), types.NewString(fmt.Sprintf("m%d", i%20+1)),
		}, 0))
		tx.InsertRow(hb, storage.NewRow([]types.Value{
			types.NewString(name), types.NewTime(ts),
		}, 0))
	}
	tx.Commit()
	act.CreateIndex("mach_id")
	rout.CreateIndex("mach_id")
	hb.CreateIndex("sid")
	return New(cat), mgr
}

func plan(t *testing.T, p *Planner, mgr *txn.Manager, sql string) *Plan {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.PlanSelect(sel, mgr.ReadSnapshot())
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return pl
}

// semiProbes lists a plan's semi-join probes in note order.
func semiProbes(pl *Plan) []*exec.SemiProbe {
	var out []*exec.SemiProbe
	for _, n := range pl.t.notes {
		if probe, ok := n.op.(*exec.SemiProbe); ok {
			out = append(out, probe)
		}
	}
	return out
}

// hashJoins lists a plan's columnar hash joins, each before its inputs.
func hashJoins(pl *Plan) []*exec.BatchHashJoin {
	var out []*exec.BatchHashJoin
	walk(pl.t.root, func(op exec.BatchOperator) {
		if j, ok := op.(*exec.BatchHashJoin); ok {
			out = append(out, j)
		}
	})
	return out
}

// eachRun plans and drains one parsed statement runs times, calling check
// after each: the first two runs plan it (a statement's first tree is not
// kept), every later one must re-bind its template.
func eachRun(t *testing.T, p *Planner, mgr *txn.Manager, sql string, runs int, check func(run int, pl *Plan, rows [][]types.Value)) {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < runs; run++ {
		hits, _ := p.TemplateStats()
		pl, err := p.PlanSelect(sel, mgr.ReadSnapshot())
		if err != nil {
			t.Fatalf("plan %q: %v", sql, err)
		}
		if again, _ := p.TemplateStats(); (again > hits) != (run > 1) {
			t.Fatalf("%s: run %d template hit = %v", sql, run, again > hits)
		}
		rows, err := exec.Drain(pl.Root)
		if err != nil {
			t.Fatalf("run %q: %v", sql, err)
		}
		check(run, pl, rows)
	}
}

func runPlan(t *testing.T, p *Planner, mgr *txn.Manager, sql string) [][]types.Value {
	t.Helper()
	pl := plan(t, p, mgr, sql)
	rows, err := exec.Drain(pl.Root)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return rows
}

func TestIndexScanChosenForEquality(t *testing.T) {
	p, mgr := fixture(t)
	pl := plan(t, p, mgr, `SELECT value FROM Activity WHERE mach_id = 'm4'`)
	if !strings.Contains(pl.Describe(), "index scan") {
		t.Errorf("plan:\n%s", pl.Describe())
	}
	rows, _ := exec.Drain(pl.Root)
	if len(rows) != 1 || rows[0][0].Str() != "idle" {
		t.Errorf("rows = %v", rows)
	}
}

// TestWirePointFormsPlanColumnar: the statements a wire_point refresh sends —
// the point form, the selective join form, and the recency query generated
// for each — are index probes, and every run of each returns its rows; the
// third run is its template's.
func TestWirePointFormsPlanColumnar(t *testing.T) {
	p, mgr := fixture(t)
	for _, c := range []struct {
		sql  string
		rows int
	}{
		{`SELECT value, event_time FROM Activity WHERE mach_id = 'm4'`, 1},
		{`SELECT DISTINCT trac_h.sid AS sid, trac_h.recency AS recency FROM Heartbeat trac_h WHERE trac_h.sid = 'm4'`, 1},
		{`SELECT COUNT(*) FROM Routing R, Activity A WHERE R.mach_id IN ('m1', 'm2') AND A.mach_id IN ('m1', 'm2') AND R.neighbor = A.mach_id AND A.value = 'idle'`, 1},
		{`SELECT DISTINCT trac_h.sid AS sid, trac_h.recency AS recency FROM Heartbeat trac_h, Activity A WHERE trac_h.sid IN ('m1', 'm2') AND A.mach_id IN ('m1', 'm2') AND A.value = 'idle' UNION SELECT DISTINCT trac_h.sid AS sid, trac_h.recency AS recency FROM Heartbeat trac_h, Routing R WHERE trac_h.sid IN ('m1', 'm2') AND R.neighbor = trac_h.sid AND R.mach_id IN ('m1', 'm2')`, 2},
	} {
		indexScans := 0
		walk(plan(t, p, mgr, c.sql).Root, func(op exec.BatchOperator) {
			if _, ok := op.(*exec.IndexScan); ok {
				indexScans++
			}
		})
		if indexScans == 0 {
			t.Errorf("%s: no index scan", c.sql)
		}
		eachRun(t, p, mgr, c.sql, 3, func(run int, pl *Plan, rows [][]types.Value) {
			if len(rows) != c.rows {
				t.Errorf("%s run %d: %d rows; want %d", c.sql, run, len(rows), c.rows)
			}
		})
	}
}

func TestRangeScanChosen(t *testing.T) {
	p, mgr := fixture(t)
	pl := plan(t, p, mgr, `SELECT mach_id FROM Activity WHERE mach_id LIKE 'm1%'`)
	// m1, m10..m19 = 11 rows; LIKE prefix should bound an index range.
	if !strings.Contains(pl.Describe(), "index scan") || !strings.Contains(pl.Describe(), "range") {
		t.Errorf("plan:\n%s", pl.Describe())
	}
	rows, _ := exec.Drain(pl.Root)
	if len(rows) != 11 {
		t.Errorf("rows = %d, want 11", len(rows))
	}
}

func TestHashJoinChosenForEquijoin(t *testing.T) {
	p, mgr := fixture(t)
	pl := plan(t, p, mgr, `
		SELECT A.mach_id FROM Routing R, Activity A
		WHERE R.mach_id = 'm1' AND R.neighbor = A.mach_id AND A.value = 'idle'`)
	if !strings.Contains(pl.Describe(), "hash join") {
		t.Errorf("plan:\n%s", pl.Describe())
	}
	rows, err := exec.Drain(pl.Root)
	if err != nil {
		t.Fatal(err)
	}
	// m1's neighbor is m2 which is idle.
	if len(rows) != 1 || rows[0][0].Str() != "m2" {
		t.Errorf("rows = %v", rows)
	}
}

func TestExistenceReductionForDisconnectedDistinct(t *testing.T) {
	p, mgr := fixture(t)
	// The shape of a generated recency arm: DISTINCT over Heartbeat columns,
	// Activity cross-joined with only a local filter.
	pl := plan(t, p, mgr, `
		SELECT DISTINCT H.sid, H.recency FROM Heartbeat H, Activity A
		WHERE H.sid IN ('m1', 'm2') AND A.value = 'idle'`)
	if !strings.Contains(pl.Describe(), "(existence)") {
		t.Errorf("expected existence reduction:\n%s", pl.Describe())
	}
	rows, err := exec.Drain(pl.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestExistenceReductionEmptyProbe(t *testing.T) {
	p, mgr := fixture(t)
	rows := runPlan(t, p, mgr, `
		SELECT DISTINCT H.sid FROM Heartbeat H, Activity A
		WHERE H.sid IN ('m1') AND A.value = 'no_such_state'`)
	if len(rows) != 0 {
		t.Errorf("empty probe must gate output, got %v", rows)
	}
}

func TestNoReductionWithoutDistinct(t *testing.T) {
	p, mgr := fixture(t)
	// Without DISTINCT, multiplicity matters: cross product cardinality.
	rows := runPlan(t, p, mgr, `
		SELECT H.sid FROM Heartbeat H, Activity A
		WHERE H.sid = 'm1' AND A.value = 'idle'`)
	if len(rows) != 10 { // 1 heartbeat × 10 idle activity rows
		t.Errorf("rows = %d, want 10 (cross product multiplicity)", len(rows))
	}
	pl := plan(t, p, mgr, `
		SELECT H.sid FROM Heartbeat H, Activity A
		WHERE H.sid = 'm1' AND A.value = 'idle'`)
	if strings.Contains(pl.Describe(), "(existence)") {
		t.Errorf("reduction must not fire without DISTINCT:\n%s", pl.Describe())
	}
}

func TestNoReductionForAggregates(t *testing.T) {
	p, mgr := fixture(t)
	rows := runPlan(t, p, mgr, `
		SELECT DISTINCT COUNT(*) FROM Heartbeat H, Activity A
		WHERE H.sid = 'm1' AND A.value = 'idle'`)
	if rows[0][0].Int() != 10 {
		t.Errorf("COUNT = %v, want 10", rows[0][0])
	}
}

func TestNoReductionWhenItemsSpanComponents(t *testing.T) {
	p, mgr := fixture(t)
	pl := plan(t, p, mgr, `
		SELECT DISTINCT H.sid, A.value FROM Heartbeat H, Activity A
		WHERE H.sid = 'm1'`)
	if strings.Contains(pl.Describe(), "(existence)") {
		t.Errorf("reduction must not fire when items span components:\n%s", pl.Describe())
	}
	rows, _ := exec.Drain(pl.Root)
	if len(rows) != 2 { // (m1, idle), (m1, busy)
		t.Errorf("rows = %v", rows)
	}
}

func TestUnionPlan(t *testing.T) {
	p, mgr := fixture(t)
	rows := runPlan(t, p, mgr, `
		SELECT mach_id FROM Activity WHERE mach_id = 'm1'
		UNION SELECT mach_id FROM Activity WHERE mach_id = 'm2'
		UNION SELECT mach_id FROM Activity WHERE mach_id = 'm1'`)
	if len(rows) != 2 {
		t.Errorf("union rows = %v", rows)
	}
}

func TestUnionArityMismatch(t *testing.T) {
	p, mgr := fixture(t)
	sel, _ := sqlparser.ParseSelect(`SELECT mach_id FROM Activity UNION SELECT mach_id, value FROM Activity`)
	if _, err := p.PlanSelect(sel, mgr.ReadSnapshot()); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestUnionOrderByOutputColumn(t *testing.T) {
	p, mgr := fixture(t)
	rows := runPlan(t, p, mgr, `
		SELECT mach_id FROM Activity WHERE mach_id = 'm2'
		UNION SELECT mach_id FROM Activity WHERE mach_id = 'm1'
		ORDER BY mach_id`)
	if rows[0][0].Str() != "m1" || rows[1][0].Str() != "m2" {
		t.Errorf("rows = %v", rows)
	}
	rows = runPlan(t, p, mgr, `
		SELECT mach_id FROM Activity WHERE mach_id = 'm2'
		UNION SELECT mach_id FROM Activity WHERE mach_id = 'm1'
		ORDER BY 1 DESC LIMIT 1`)
	if len(rows) != 1 || rows[0][0].Str() != "m2" {
		t.Errorf("rows = %v", rows)
	}
}

func TestEqualityProbe(t *testing.T) {
	p, _ := fixture(t)
	tbl, _ := p.Catalog.Get("Activity")
	where, _ := sqlparser.ParseExpr(`mach_id = 'm3' AND value = 'busy'`)
	probes := EqualityProbes(tbl, where)
	if len(probes) != 1 || probes[0].Col != 0 || len(probes[0].Keys) != 1 || probes[0].Keys[0].Str() != "m3" {
		t.Errorf("probes = %v", probes)
	}
	whereIn, _ := sqlparser.ParseExpr(`mach_id IN ('m1', 'm2')`)
	if probes := EqualityProbes(tbl, whereIn); len(probes) != 1 || len(probes[0].Keys) != 2 {
		t.Errorf("IN probes = %v", probes)
	}
	whereNone, _ := sqlparser.ParseExpr(`value = 'busy'`)
	if probes := EqualityProbes(tbl, whereNone); probes != nil {
		t.Errorf("probes on an unindexed column = %v", probes)
	}
	if probes := EqualityProbes(tbl, nil); probes != nil {
		t.Errorf("probes for a nil WHERE = %v", probes)
	}
}

func TestSelectStarExpansionOrder(t *testing.T) {
	p, mgr := fixture(t)
	pl := plan(t, p, mgr, `SELECT * FROM Routing R, Activity A WHERE R.mach_id = A.mach_id`)
	want := []string{"mach_id", "neighbor", "mach_id", "value", "event_time"}
	if fmt.Sprint(pl.Columns) != fmt.Sprint(want) {
		t.Errorf("columns = %v", pl.Columns)
	}
}

func TestOrderByUnknownPosition(t *testing.T) {
	p, mgr := fixture(t)
	sel, _ := sqlparser.ParseSelect(`SELECT mach_id FROM Activity ORDER BY 5`)
	if _, err := p.PlanSelect(sel, mgr.ReadSnapshot()); err == nil {
		t.Error("out-of-range ORDER BY position should fail")
	}
}

func TestJoinResultMatchesNaiveCross(t *testing.T) {
	// The optimized join plan must agree with a brute-force cross product
	// evaluation for a three-way join.
	p, mgr := fixture(t)
	sql := `
		SELECT A.mach_id, R.neighbor, H.sid
		FROM Activity A, Routing R, Heartbeat H
		WHERE A.mach_id = R.mach_id AND R.neighbor = H.sid AND A.value = 'idle'`
	rows := runPlan(t, p, mgr, sql)

	// Reference: evaluate by nested loops over raw table data.
	snap := mgr.ReadSnapshot()
	act, _ := p.Catalog.Get("Activity")
	rout, _ := p.Catalog.Get("Routing")
	hb, _ := p.Catalog.Get("Heartbeat")
	var want []string
	for _, a := range act.Rows() {
		if !snap.Visible(a) || a.Values[1].Str() != "idle" {
			continue
		}
		for _, r := range rout.Rows() {
			if !snap.Visible(r) || r.Values[0].Str() != a.Values[0].Str() {
				continue
			}
			for _, h := range hb.Rows() {
				if !snap.Visible(h) || h.Values[0].Str() != r.Values[1].Str() {
					continue
				}
				want = append(want, a.Values[0].Str()+"|"+r.Values[1].Str()+"|"+h.Values[0].Str())
			}
		}
	}
	var got []string
	for _, row := range rows {
		got = append(got, row[0].Str()+"|"+row[1].Str()+"|"+row[2].Str())
	}
	sort.Strings(want)
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("join mismatch:\n got %v\nwant %v", got, want)
	}
}

// TestDescribeAfterCloseReadsNoSharedState: once a plan's Root is closed its
// tree may be checked out and run again at once; Describe of the closed plan
// must still report its own run, reading nothing the new run writes (run
// under -race).
func TestDescribeAfterCloseReadsNoSharedState(t *testing.T) {
	p, mgr := fixture(t)
	for _, sql := range []string{
		`SELECT DISTINCT trac_h.sid AS sid, trac_h.recency AS recency FROM Heartbeat trac_h, Routing R WHERE R.neighbor = trac_h.sid AND R.mach_id IN ('m1', 'm2')`,
		`SELECT DISTINCT trac_h.sid AS sid, trac_h.recency AS recency FROM Heartbeat trac_h, Activity A WHERE trac_h.sid IN ('m1', 'm2') AND A.mach_id IN ('m1', 'm2') AND A.value = 'idle' UNION SELECT DISTINCT trac_h.sid AS sid, trac_h.recency AS recency FROM Heartbeat trac_h, Routing R WHERE trac_h.sid IN ('m1', 'm2') AND R.neighbor = trac_h.sid AND R.mach_id IN ('m1', 'm2')`,
	} {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (*Plan, error) {
			pl, err := p.PlanSelect(sel, mgr.ReadSnapshot())
			if err == nil {
				_, err = exec.Drain(pl.Root)
			}
			return pl, err
		}
		var closed *Plan
		for i := 0; i < 3; i++ { // the third run is the template's
			if closed, err = run(); err != nil {
				t.Fatal(err)
			}
		}
		want := closed.Describe()
		if !strings.Contains(want, "rows read") {
			t.Fatalf("the closed plan reports no run:\n%s", want)
		}
		hits, _ := p.TemplateStats()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				if _, err := run(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for i := 0; i < 50; i++ {
			if got := closed.Describe(); got != want {
				t.Fatalf("Describe of a closed plan changed while its tree ran again:\n%s\nwas:\n%s", got, want)
			}
		}
		<-done
		if again, _ := p.TemplateStats(); again < hits+50 {
			t.Errorf("%d of the 50 runs re-bound the template, want all", again-hits)
		}
	}
}
