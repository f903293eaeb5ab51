package planner

import (
	"strings"
	"testing"

	"trac/internal/exec"
	"trac/internal/sqlparser"
)

// walk calls fn with every operator of a plan tree, each before its inputs.
func walk(op exec.BatchOperator, fn func(exec.BatchOperator)) {
	fn(op)
	var in []exec.BatchOperator
	switch n := op.(type) {
	case *checkout:
		in = append(in, n.Unwrap())
	case *exec.BatchFilter:
		in = append(in, n.Child)
	case *exec.BatchProject:
		in = append(in, n.Child)
	case *exec.BatchDistinct:
		in = append(in, n.Child)
	case *exec.BatchSort:
		in = append(in, n.Child)
	case *exec.BatchLimit:
		in = append(in, n.Child)
	case *exec.BatchUnion:
		in = append(in, n.Children...)
	case *exec.BatchGroupAggregate:
		in = append(in, n.Src)
	case *exec.BatchHashJoin:
		in = append(in, n.Build, n.Probe)
	case *exec.BatchNestedLoopJoin:
		in = append(in, n.Outer, n.Inner)
	case *exec.SemiJoin:
		in = append(in, n.Anchor)
		for _, arm := range n.Arms {
			for _, p := range arm.Probes {
				in = append(in, p.Src)
			}
		}
	}
	for _, c := range in {
		walk(c, fn)
	}
}

// findParallelScan returns the first ParallelScan of a plan tree.
func findParallelScan(op exec.BatchOperator) *exec.ParallelScan {
	var found *exec.ParallelScan
	walk(op, func(o exec.BatchOperator) {
		if ps, ok := o.(*exec.ParallelScan); ok && found == nil {
			found = ps
		}
	})
	return found
}

func TestSmallTableStaysSerial(t *testing.T) {
	p, mgr := fixture(t)
	// 20 rows is far below any threshold: no parallel scan, degree 1.
	pl := plan(t, p, mgr, "SELECT value FROM Activity")
	if ps := findParallelScan(pl.Root); ps != nil {
		t.Fatalf("20-row table got a parallel scan (%d workers)", ps.Degree())
	}
	if pl.Parallel != 1 {
		t.Errorf("Plan.Parallel = %d, want 1", pl.Parallel)
	}
	if strings.Contains(pl.Describe(), "parallel") {
		t.Errorf("explain mentions parallelism:\n%s", pl.Describe())
	}
}

func TestParallelScanChosenAboveThreshold(t *testing.T) {
	p, mgr := fixture(t)
	// Lower the threshold below the fixture's 20 rows and force a worker
	// cap independent of the host's core count.
	p.ParallelThreshold = 5
	p.MaxParallel = 4

	pl := plan(t, p, mgr, "SELECT value FROM Activity WHERE value = 'foo'")
	ps := findParallelScan(pl.Root)
	if ps == nil {
		t.Fatalf("no parallel scan above threshold; plan:\n%s", pl.Describe())
	}
	if got := ps.Degree(); got != 4 {
		t.Errorf("degree = %d, want capped at 4", got)
	}
	if pl.Parallel != 4 {
		t.Errorf("Plan.Parallel = %d, want 4", pl.Parallel)
	}
	desc := pl.Describe()
	if !strings.Contains(desc, "workers") || !strings.Contains(desc, "parallel degree: 4") {
		t.Errorf("explain lacks parallel notes:\n%s", desc)
	}

	// The plan must still produce correct (empty-filter) results.
	rows, err := exec.Drain(pl.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rows = %d, want 0 for value='foo'", len(rows))
	}
}

func TestParallelScanResultsMatchSerial(t *testing.T) {
	p, mgr := fixture(t)
	sql := "SELECT mach_id FROM Activity WHERE value = 'idle' ORDER BY mach_id"
	serial := runPlan(t, p, mgr, sql)

	p.ParallelThreshold = 5
	p.MaxParallel = 4
	parallel := runPlan(t, p, mgr, sql)

	if len(serial) != len(parallel) {
		t.Fatalf("serial %d rows, parallel %d rows", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i][0].Str() != parallel[i][0].Str() {
			t.Errorf("row %d: %v vs %v", i, serial[i], parallel[i])
		}
	}
}

func TestIndexBeatsParallelScanForEquality(t *testing.T) {
	p, mgr := fixture(t)
	p.ParallelThreshold = 5
	p.MaxParallel = 4
	// mach_id is indexed: an equality probe should still win over the
	// parallel heap scan.
	pl := plan(t, p, mgr, "SELECT value FROM Activity WHERE mach_id = 'm7'")
	if ps := findParallelScan(pl.Root); ps != nil {
		t.Fatalf("equality probe should use the index, got parallel scan")
	}
	if !strings.Contains(pl.Describe(), "index") {
		t.Errorf("expected index scan:\n%s", pl.Describe())
	}
}

func TestParallelWorkersScaling(t *testing.T) {
	p := &Planner{ParallelThreshold: 1000, MaxParallel: 8}
	for _, tc := range []struct {
		rows float64
		want int
	}{
		{0, 1},
		{999, 1},
		{1000, 2},   // at threshold: minimum useful degree
		{3500, 3},   // rows/threshold
		{100000, 8}, // capped
	} {
		if got := p.parallelWorkers(tc.rows); got != tc.want {
			t.Errorf("parallelWorkers(%v) = %d, want %d", tc.rows, got, tc.want)
		}
	}
	serial := &Planner{ParallelThreshold: 1000, MaxParallel: 1}
	if got := serial.parallelWorkers(1e9); got != 1 {
		t.Errorf("MaxParallel=1 must force serial, got %d", got)
	}
}

// TestTemplateFollowsParallelConfig: the parallel degree is a planning
// decision, so a template made under one planner configuration is not
// re-bound under another.
func TestTemplateFollowsParallelConfig(t *testing.T) {
	p, mgr := jobFixture(t, 20, 20, 5_000)
	sel, err := sqlparser.ParseSelect(`SELECT mach_id FROM JobLog WHERE job_id > 10`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ max, degree int }{{1, 1}, {4, 4}, {1, 1}} {
		p.ParallelThreshold, p.MaxParallel = 1_000, c.max
		for run := 0; run < 3; run++ {
			pl, err := p.PlanSelect(sel, mgr.ReadSnapshot())
			if err != nil {
				t.Fatal(err)
			}
			rows, err := exec.Drain(pl.Root)
			if err != nil {
				t.Fatal(err)
			}
			if pl.Parallel != c.degree || len(rows) != 5_000-11 {
				t.Errorf("MaxParallel %d, run %d: degree %d, %d rows; want %d, %d", c.max, run, pl.Parallel, len(rows), c.degree, 5_000-11)
			}
		}
	}
}
