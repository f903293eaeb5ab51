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

// jobRow is a JobLog row of the source fixtures.
func jobRow(src string, id int) *storage.Row {
	return storage.NewRow([]types.Value{types.NewString(src), types.NewInt(int64(id))}, 0)
}

// checkReported holds a recency arm's rows (sid first) to the brute-force
// answer: the Heartbeat sources some JobLog row visible under snap and
// passing keep was written by.
func checkReported(t *testing.T, p *Planner, snap txn.Snapshot, keep func(*storage.Row) bool, rows [][]types.Value) {
	t.Helper()
	jobs, _ := p.Catalog.Get("JobLog")
	hb, _ := p.Catalog.Get("Heartbeat")
	wrote := map[string]bool{}
	for _, r := range jobs.Rows() {
		if snap.Visible(r) && keep(r) {
			wrote[r.Values[0].Str()] = true
		}
	}
	var want, got []string
	for _, r := range hb.Rows() {
		if snap.Visible(r) && wrote[r.Values[0].Str()] {
			want = append(want, r.Values[0].Str())
		}
	}
	for _, row := range rows {
		got = append(got, row[0].Str())
	}
	sort.Strings(want)
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reported %d sources %v, want %d %v", len(got), got, len(want), want)
	}
}

func everyRow(*storage.Row) bool { return true }

// TestRecencyArmProvesAbsenceFromSourceSets pins the metadata phase: with a
// source that never writes to JobLog the probe can never stop early, yet it
// reads no more than the tail and the segments whose source set cannot
// stand for their rows, however long JobLog has grown — serial at 5k rows,
// a morsel-parallel scan at 50k — and reports exactly the sources that
// wrote.
func TestRecencyArmProvesAbsenceFromSourceSets(t *testing.T) {
	const sources = 100
	for _, tc := range []struct {
		jobRows  int
		parallel bool
	}{{5_000, false}, {50_000, true}} {
		p, mgr := sourcedJobFixture(t, sources, sources-1, tc.jobRows)
		if tc.parallel {
			p.ParallelThreshold, p.MaxParallel = 1_000, 4
		}
		jobs, _ := p.Catalog.Get("JobLog")
		heap := jobs.Snap()
		bound, withSets := len(heap.Tail()), 0
		for _, seg := range heap.Segments {
			if seg.Zones[0].Sources == nil {
				bound += seg.Len()
			} else {
				withSets++
			}
		}
		if withSets == 0 {
			t.Fatalf("%d rows: no segment kept its source set", tc.jobRows)
		}
		eachRun(t, p, mgr, heartbeatSemiJobLog, 3, func(run int, pl *Plan, rows [][]types.Value) {
			checkReported(t, p, mgr.ReadSnapshot(), everyRow, rows)
			if got := pl.Parallel > 1; got != tc.parallel {
				t.Fatalf("%d rows: parallel = %v, want %v:\n%s", tc.jobRows, got, tc.parallel, pl.Describe())
			}
			probe := semiProbes(pl)[0]
			if !probe.Exhausted || probe.Probed > bound || probe.MetaSegments != withSets {
				t.Errorf("%d rows, run %d: probed %d rows (bound %d), %d segments from source sets (want %d), exhausted=%v",
					tc.jobRows, run, probe.Probed, bound, probe.MetaSegments, withSets, probe.Exhausted)
			}
			want := fmt.Sprintf("probe J: %d segments from source sets, %d rows read, exhausted", withSets, probe.Probed)
			if desc := pl.Describe(); !strings.Contains(desc, want) {
				t.Errorf("run %d: plan notes lack %q:\n%s", run, want, desc)
			}
		})
	}
}

// TestRecencyArmReadsSegmentsItsSourceSetCannotStandFor: a source set lists
// every source any version of the segment was written by, whatever has
// happened to the versions since, so a segment is taken from its set only
// when the set is there, the probe's predicate holds on every row, and every
// version is visible. The fixture's first segment always qualifies; each
// case makes the segment sealed after it fail one condition, and the probe
// must read that segment's rows and still report exactly the sources that
// wrote — m100, in the cases that write it, through a version the snapshot
// must not see.
func TestRecencyArmReadsSegmentsItsSourceSetCannotStandFor(t *testing.T) {
	filtered := func(pred string) string { return heartbeatSemiJobLog + " AND " + pred }
	for _, tc := range []struct {
		name   string
		sql    string
		keep   func(*storage.Row) bool
		write  func(t *testing.T, jobs *storage.Table, mgr *txn.Manager) (done func())
		probed int // rows the probe reads from the second segment
	}{
		{name: "in-flight insert", sql: heartbeatSemiJobLog, keep: everyRow, probed: 904,
			write: func(t *testing.T, jobs *storage.Table, mgr *txn.Manager) func() {
				tx := mgr.Begin()
				if err := tx.InsertRow(jobs, jobRow("m100", 9_000)); err != nil {
					t.Fatal(err)
				}
				return func() { tx.Abort() }
			}},
		{name: "aborted writer", sql: heartbeatSemiJobLog, keep: everyRow, probed: 904,
			write: func(t *testing.T, jobs *storage.Table, mgr *txn.Manager) func() {
				tx := mgr.Begin()
				if err := tx.InsertRow(jobs, jobRow("m100", 9_000)); err != nil {
					t.Fatal(err)
				}
				tx.Abort()
				return func() {}
			}},
		{name: "set over the cap", sql: heartbeatSemiJobLog, keep: everyRow, probed: 904 + storage.MaxZoneSources + 2,
			write: func(t *testing.T, jobs *storage.Table, mgr *txn.Manager) func() {
				tx := mgr.Begin()
				for i := 0; i < storage.MaxZoneSources+2; i++ {
					if err := tx.InsertRow(jobs, jobRow(fmt.Sprintf("x%d", i), 9_000+i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				return func() {}
			}},
		{name: "filter covers part of the segment", sql: filtered("J.job_id < 4500"),
			keep: func(r *storage.Row) bool { return r.Values[1].Int() < 4500 }, probed: 4500 - 4096,
			write: func(*testing.T, *storage.Table, *txn.Manager) func() { return func() {} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, mgr := sourcedJobFixture(t, 100, 99, 5_000)
			jobs, _ := p.Catalog.Get("JobLog")
			done := tc.write(t, jobs, mgr)
			defer done()
			jobs.Seal()
			if n := jobs.NumSegments(); n != 2 {
				t.Fatalf("%d segments, want 2", n)
			}
			eachRun(t, p, mgr, tc.sql, 3, func(run int, pl *Plan, rows [][]types.Value) {
				checkReported(t, p, mgr.ReadSnapshot(), tc.keep, rows)
				probe := semiProbes(pl)[0]
				if probe.MetaSegments != 1 || probe.Probed != tc.probed || !probe.Exhausted {
					t.Errorf("run %d: %d segments from source sets, %d rows read (want 1, %d), exhausted=%v:\n%s",
						run, probe.MetaSegments, probe.Probed, tc.probed, probe.Exhausted, pl.Describe())
				}
			})
		})
	}

	// A predicate that prunes one segment and covers the other reads nothing.
	t.Run("filter prunes and covers", func(t *testing.T) {
		p, mgr := sourcedJobFixture(t, 100, 99, 5_000)
		jobs, _ := p.Catalog.Get("JobLog")
		jobs.Seal()
		keep := func(r *storage.Row) bool { return r.Values[1].Int() >= 4096 }
		eachRun(t, p, mgr, filtered("J.job_id >= 4096"), 3, func(run int, pl *Plan, rows [][]types.Value) {
			checkReported(t, p, mgr.ReadSnapshot(), keep, rows)
			if probe := semiProbes(pl)[0]; probe.MetaSegments != 1 || probe.Probed != 0 {
				t.Errorf("run %d:\n%s", run, pl.Describe())
			}
		})
	})

	// The only version of m100 is deleted after its segment was taken from
	// its set: the delete mark must send the segment back to its rows.
	t.Run("committed delete", func(t *testing.T) {
		p, mgr := sourcedJobFixture(t, 100, 99, 5_000)
		jobs, _ := p.Catalog.Get("JobLog")
		only := jobRow("m100", 9_000)
		tx := mgr.Begin()
		if err := tx.InsertRow(jobs, only); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		jobs.Seal()
		eachRun(t, p, mgr, heartbeatSemiJobLog, 3, func(run int, pl *Plan, rows [][]types.Value) {
			checkReported(t, p, mgr.ReadSnapshot(), everyRow, rows)
			if probe := semiProbes(pl)[0]; probe.MetaSegments != 2 || probe.Probed != 0 || probe.Exhausted {
				t.Errorf("before the delete, run %d:\n%s", run, pl.Describe())
			}
		})
		tx = mgr.Begin()
		if err := tx.Delete(jobs, only); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		eachRun(t, p, mgr, heartbeatSemiJobLog, 3, func(run int, pl *Plan, rows [][]types.Value) {
			checkReported(t, p, mgr.ReadSnapshot(), everyRow, rows)
			if probe := semiProbes(pl)[0]; probe.MetaSegments != 1 || probe.Probed != 904 || !probe.Exhausted {
				t.Errorf("after the delete, run %d:\n%s", run, pl.Describe())
			}
		})
	})
}

// BenchmarkSemiJoinAbsence prices a recency arm over a 20k-row JobLog that
// one of 200 sources never wrote to, so the probe cannot stop early.
// "source-sets" writes 32-row runs per source, and every sealed segment is
// taken from its source set; "rows" writes round-robin, so every segment
// spans 199 sources, is over MaxZoneSources and is read row by row.
func BenchmarkSemiJoinAbsence(b *testing.B) {
	sel, err := sqlparser.ParseSelect(heartbeatSemiJobLog)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		run  int
	}{{"source-sets", 32}, {"rows", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			p, mgr := buildJobFixture(b, 200, 199, 20_000, bc.run, true)
			probed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl, err := p.PlanSelect(sel, mgr.ReadSnapshot())
				if err != nil {
					b.Fatal(err)
				}
				rows, err := exec.Drain(pl.Root)
				if err != nil || len(rows) != 199 {
					b.Fatalf("%d rows, err %v", len(rows), err)
				}
				probed += semiProbes(pl)[0].Probed
			}
			b.ReportMetric(float64(probed)/float64(b.N), "rows-read/op")
		})
	}
}

// TestRecencyArmTakesFullTailWindowsFromSourceSets: the unsealed tail of an
// append-only JobLog holds k full windows and a partial one. The probe takes
// each full window from its source set (storage.Table.WindowSources), as it
// takes a sealed segment, and reads only the partial window's rows — serial,
// and on a morsel-parallel scan whose tail runs are the same windows — while
// reporting exactly the sources that wrote.
func TestRecencyArmTakesFullTailWindowsFromSourceSets(t *testing.T) {
	for _, tc := range []struct {
		segments, windows, partial int
		parallel                   bool
	}{{1, 2, 300, false}, {12, 3, 100, true}} {
		jobRows := tc.segments*storage.DefaultSegmentSize + tc.windows*exec.BatchSize + tc.partial
		p, mgr := sourcedJobFixture(t, 100, 99, jobRows)
		if tc.parallel {
			p.ParallelThreshold, p.MaxParallel = 1_000, 4
		}
		jobs, _ := p.Catalog.Get("JobLog")
		if heap := jobs.Snap(); len(heap.Segments) != tc.segments || len(heap.Tail()) != tc.windows*exec.BatchSize+tc.partial {
			t.Fatalf("fixture: %d segments and a %d-row tail", len(heap.Segments), len(heap.Tail()))
		}
		eachRun(t, p, mgr, heartbeatSemiJobLog, 3, func(run int, pl *Plan, rows [][]types.Value) {
			checkReported(t, p, mgr.ReadSnapshot(), everyRow, rows)
			if got := pl.Parallel > 1; got != tc.parallel {
				t.Fatalf("parallel = %v, want %v", got, tc.parallel)
			}
			probe := semiProbes(pl)[0]
			if probe.Probed != tc.partial || probe.MetaSegments != tc.segments+tc.windows || !probe.Exhausted {
				t.Errorf("%d rows, run %d: probed %d rows (want the partial window's %d), %d units from source sets (want %d + %d), exhausted=%v",
					jobRows, run, probe.Probed, tc.partial, probe.MetaSegments, tc.segments, tc.windows, probe.Exhausted)
			}
		})
	}
}

// TestRecencyArmReadsTailWindowsItsSourceSetCannotStandFor: a full tail
// window is taken from its source set only when every creator committed at
// or before the snapshot, none of its versions carries a delete mark, it
// spans at most MaxZoneSources sources and the probe has no predicate; the
// partial window is always read. The fixture's tail is one full window and
// 1,023 rows, so a case's one-row write of m100 completes a second window;
// each case makes that window fail one condition, and the probe must read its
// rows and report exactly the sources the snapshot sees writing — m100 only
// where its write is visible.
func TestRecencyArmReadsTailWindowsItsSourceSetCannotStandFor(t *testing.T) {
	const jobRows = storage.DefaultSegmentSize + 2*exec.BatchSize - 1
	sel, err := sqlparser.ParseSelect(heartbeatSemiJobLog)
	if err != nil {
		t.Fatal(err)
	}
	// probeAt runs the arm under snap, checks its answer and returns its
	// probe's counters. Probed counts the rows the probe examined, which are
	// the visible ones of the units it read.
	probeAt := func(t *testing.T, p *Planner, sel *sqlparser.SelectStmt, snap txn.Snapshot, keep func(*storage.Row) bool) *exec.SemiProbe {
		t.Helper()
		pl, err := p.PlanSelect(sel, snap)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Drain(pl.Root)
		if err != nil {
			t.Fatal(err)
		}
		checkReported(t, p, snap, keep, rows)
		return semiProbes(pl)[0]
	}
	insert := func(t *testing.T, mgr *txn.Manager, jobs *storage.Table) (*txn.Txn, *storage.Row) {
		t.Helper()
		tx := mgr.Begin()
		row := jobRow("m100", 9_000)
		if err := tx.InsertRow(jobs, row); err != nil {
			t.Fatal(err)
		}
		return tx, row
	}
	want := func(t *testing.T, probe *exec.SemiProbe, probed, meta int) {
		t.Helper()
		if probe.Probed != probed || probe.MetaSegments != meta {
			t.Errorf("probed %d rows, %d units from source sets; want %d, %d", probe.Probed, probe.MetaSegments, probed, meta)
		}
	}

	t.Run("partial window", func(t *testing.T) {
		p, mgr := sourcedJobFixture(t, 100, 99, jobRows)
		want(t, probeAt(t, p, sel, mgr.ReadSnapshot(), everyRow), exec.BatchSize-1, 2)
	})
	t.Run("committed writer", func(t *testing.T) {
		p, mgr := sourcedJobFixture(t, 100, 99, jobRows)
		jobs, _ := p.Catalog.Get("JobLog")
		tx, _ := insert(t, mgr, jobs)
		before := mgr.ReadSnapshot()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want(t, probeAt(t, p, sel, mgr.ReadSnapshot(), everyRow), 0, 3)
		// A snapshot older than the window's latest creator reads its rows,
		// all but m100's visible to it.
		want(t, probeAt(t, p, sel, before, everyRow), exec.BatchSize-1, 2)
	})
	t.Run("in-flight and own-transaction insert", func(t *testing.T) {
		p, mgr := sourcedJobFixture(t, 100, 99, jobRows)
		jobs, _ := p.Catalog.Get("JobLog")
		tx, _ := insert(t, mgr, jobs)
		defer tx.Abort()
		want(t, probeAt(t, p, sel, mgr.ReadSnapshot(), everyRow), exec.BatchSize-1, 2)
		want(t, probeAt(t, p, sel, tx.Snapshot(), everyRow), exec.BatchSize, 2) // m100 sees itself
	})
	t.Run("aborted writer", func(t *testing.T) {
		p, mgr := sourcedJobFixture(t, 100, 99, jobRows)
		jobs, _ := p.Catalog.Get("JobLog")
		tx, _ := insert(t, mgr, jobs)
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		want(t, probeAt(t, p, sel, mgr.ReadSnapshot(), everyRow), exec.BatchSize-1, 2)
	})
	t.Run("delete mark after the summary", func(t *testing.T) {
		p, mgr := sourcedJobFixture(t, 100, 99, jobRows)
		jobs, _ := p.Catalog.Get("JobLog")
		tx, row := insert(t, mgr, jobs)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want(t, probeAt(t, p, sel, mgr.ReadSnapshot(), everyRow), 0, 3)
		tx = mgr.Begin()
		if err := tx.Delete(jobs, row); err != nil {
			t.Fatal(err)
		}
		want(t, probeAt(t, p, sel, mgr.ReadSnapshot(), everyRow), exec.BatchSize, 2) // the deleter is in flight
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want(t, probeAt(t, p, sel, mgr.ReadSnapshot(), everyRow), exec.BatchSize-1, 2)
	})
	t.Run("window over the cap", func(t *testing.T) {
		// Round-robin writes: the segment and every window span 199 sources.
		p, mgr := buildJobFixture(t, 200, 199, storage.DefaultSegmentSize+2*exec.BatchSize, 1, true)
		want(t, probeAt(t, p, sel, mgr.ReadSnapshot(), everyRow), storage.DefaultSegmentSize+2*exec.BatchSize, 0)
	})
	t.Run("probe with a predicate", func(t *testing.T) {
		p, mgr := sourcedJobFixture(t, 100, 99, jobRows)
		filtered, err := sqlparser.ParseSelect(heartbeatSemiJobLog + " AND J.job_id >= 0")
		if err != nil {
			t.Fatal(err)
		}
		keep := func(r *storage.Row) bool { return r.Values[1].Int() >= 0 }
		want(t, probeAt(t, p, filtered, mgr.ReadSnapshot(), keep), 2*exec.BatchSize-1, 1)
	})
}

// TestRecencyArmRacingAppends probes JobLog while a writer appends to it in
// committed runs of 32 rows — auto-sealing at 4,096 as it goes, which drops
// the window sets of the sealed region — and m100, which writes last, joins
// the answer once visible. Every probe answers what its snapshot sees. Run
// under -race.
func TestRecencyArmRacingAppends(t *testing.T) {
	p, mgr := sourcedJobFixture(t, 100, 99, storage.DefaultSegmentSize+exec.BatchSize)
	jobs, _ := p.Catalog.Get("JobLog")
	sel, err := sqlparser.ParseSelect(heartbeatSemiJobLog)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for run := 0; run < 160; run++ {
			src := fmt.Sprintf("m%d", 1+run%99)
			if run == 159 {
				src = "m100"
			}
			tx := mgr.Begin()
			for i := 0; i < 32; i++ {
				if err := tx.InsertRow(jobs, jobRow(src, 10_000+32*run+i)); err != nil {
					t.Error(err)
					tx.Abort()
					return
				}
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for writing := true; writing; {
		select {
		case <-done:
			writing = false
		default:
		}
		snap := mgr.ReadSnapshot()
		pl, err := p.PlanSelect(sel, snap)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Drain(pl.Root)
		if err != nil {
			t.Fatal(err)
		}
		checkReported(t, p, snap, everyRow, rows)
	}
	if n := jobs.NumSegments(); n < 2 {
		t.Errorf("the writer sealed nothing: %d segments", n)
	}
}
