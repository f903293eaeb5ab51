package planner

import (
	"fmt"
	"strings"
	"testing"

	"trac/internal/exec"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// jobFixture builds Heartbeat (sources m1..m<sources>, sid PRIMARY KEY) and
// a JobLog of jobRows rows written round-robin by the first `writers`
// sources — the shape of a fact table every poll appends to.
func jobFixture(t *testing.T, sources, writers, jobRows int) (*Planner, *txn.Manager) {
	t.Helper()
	return buildJobFixture(t, sources, writers, jobRows, 1, false)
}

// sourcedJobFixture is jobFixture with JobLog's mach_id declared its source
// column and the rows written in runs of 32 per source, as a poll appends
// one machine's batch: a sealed segment then spans at most 128 sources and
// keeps its source set.
func sourcedJobFixture(t *testing.T, sources, writers, jobRows int) (*Planner, *txn.Manager) {
	t.Helper()
	return buildJobFixture(t, sources, writers, jobRows, 32, true)
}

// buildJobFixture writes JobLog row i for source 1 + (i/run)%writers.
func buildJobFixture(t testing.TB, sources, writers, jobRows, run int, declared bool) (*Planner, *txn.Manager) {
	t.Helper()
	cat := storage.NewCatalog()
	mgr := txn.NewManager()
	mk := func(name string, cols []storage.Column) *storage.Table {
		s, err := storage.NewSchema(cols)
		if err != nil {
			t.Fatal(err)
		}
		tbl := storage.NewTable(name, s)
		if err := cat.Create(tbl); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	hb := mk("Heartbeat", []storage.Column{
		{Name: "sid", Kind: types.KindString, PrimaryKey: true},
		{Name: "recency", Kind: types.KindTime},
	})
	jobs := mk("JobLog", []storage.Column{
		{Name: "mach_id", Kind: types.KindString},
		{Name: "job_id", Kind: types.KindInt},
	})
	if declared {
		if err := jobs.Schema.SetSourceColumn("mach_id"); err != nil {
			t.Fatal(err)
		}
	}
	tx := mgr.Begin()
	for i := 1; i <= sources; i++ {
		tx.InsertRow(hb, storage.NewRow([]types.Value{
			types.NewString(fmt.Sprintf("m%d", i)), types.NewTimeNanos(int64(i) * 1e9),
		}, 0))
	}
	for i := 0; i < jobRows; i++ {
		tx.InsertRow(jobs, storage.NewRow([]types.Value{
			types.NewString(fmt.Sprintf("m%d", 1+(i/run)%writers)), types.NewInt(int64(i)),
		}, 0))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return New(cat), mgr
}

const heartbeatSemiJobLog = `
	SELECT DISTINCT h.sid, h.recency FROM Heartbeat h, JobLog J WHERE J.mach_id = h.sid`

// TestRecencyArmCostFollowsSourcesNotJoinedTable pins the point of the
// semi-join: with every source present in JobLog the arm reads about as
// many probe rows as there are sources, however long JobLog has grown.
func TestRecencyArmCostFollowsSourcesNotJoinedTable(t *testing.T) {
	const sources = 200
	for _, jobRows := range []int{5_000, 50_000} {
		p, mgr := jobFixture(t, sources, sources, jobRows)
		eachRun(t, p, mgr, heartbeatSemiJobLog, 3, func(run int, pl *Plan, rows [][]types.Value) {
			if len(rows) != sources {
				t.Fatalf("%d JobLog rows, run %d: %d sources reported, want %d", jobRows, run, len(rows), sources)
			}
			probes := semiProbes(pl)
			if len(probes) != 1 {
				t.Fatalf("plan has %d semi-join probes:\n%s", len(probes), pl.Describe())
			}
			probe := probes[0]
			if probe.Exhausted || probe.Probed > 2*sources {
				t.Errorf("%d JobLog rows, run %d: probed %d (exhausted=%v), want about %d", jobRows, run, probe.Probed, probe.Exhausted, sources)
			}
			want := fmt.Sprintf("semi-join: anchor h (%d rows), probe J: %d rows read, stopped", sources, probe.Probed)
			if desc := pl.Describe(); !strings.Contains(desc, want) {
				t.Errorf("run %d: plan notes lack %q:\n%s", run, want, desc)
			}
		})
	}
}

// TestRecencyArmReadsProbeOnceWhenASourceIsMissing: a source with no JobLog
// row can never be marked, so the probe side is read to its end — once, and
// with no join output built on the way.
func TestRecencyArmReadsProbeOnceWhenASourceIsMissing(t *testing.T) {
	const sources, jobRows = 200, 20_000
	p, mgr := jobFixture(t, sources, sources-1, jobRows)
	eachRun(t, p, mgr, heartbeatSemiJobLog, 3, func(run int, pl *Plan, rows [][]types.Value) {
		if len(rows) != sources-1 {
			t.Fatalf("run %d: %d sources reported, want %d", run, len(rows), sources-1)
		}
		probe := semiProbes(pl)[0]
		if !probe.Exhausted || probe.Probed != jobRows {
			t.Errorf("run %d: probed %d rows (exhausted=%v), want exactly %d", run, probe.Probed, probe.Exhausted, jobRows)
		}
		desc := pl.Describe()
		if strings.Contains(desc, "hash join") || !strings.Contains(desc, fmt.Sprintf("probe J: %d rows read, exhausted", jobRows)) {
			t.Errorf("run %d: plan:\n%s", run, desc)
		}
	})
}

// TestLiveRowEstimate: a Heartbeat row updated many times is still one row
// to the planner.
func TestLiveRowEstimate(t *testing.T) {
	p, mgr := jobFixture(t, 50, 50, 100)
	hb, _ := p.Catalog.Get("Heartbeat")
	for round := 0; round < 20; round++ {
		tx := mgr.Begin()
		snap := tx.Snapshot()
		n := 0
		for _, r := range hb.Rows() {
			if !snap.Visible(r) {
				continue
			}
			if err := tx.Delete(hb, r); err != nil {
				t.Fatal(err)
			}
			vals := append([]types.Value(nil), r.Values...)
			vals[1] = types.NewTimeNanos(int64(round))
			tx.InsertRow(hb, storage.NewRow(vals, 0))
			n++
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		hb.NoteDead(n)
	}
	if hb.NumVersions() != 50*21 || hb.LiveRows() != 50 {
		t.Fatalf("versions=%d live=%d", hb.NumVersions(), hb.LiveRows())
	}
	pl := plan(t, p, mgr, `SELECT sid FROM Heartbeat`)
	if !strings.Contains(pl.Describe(), "est 50 rows") {
		t.Errorf("plan:\n%s", pl.Describe())
	}
}

// TestExistenceAndLimitScansAreSerial: consumers that stop after the first
// rows never get a parallel scan, whatever the table's size.
func TestExistenceAndLimitScansAreSerial(t *testing.T) {
	p, mgr := jobFixture(t, 20, 20, 5_000)
	p.ParallelThreshold, p.MaxParallel = 1_000, 4
	for sql, parallel := range map[string]bool{
		`SELECT mach_id FROM JobLog WHERE job_id > 10`:                           true,
		`SELECT mach_id FROM JobLog WHERE job_id > 10 LIMIT 1`:                   false,
		`SELECT mach_id FROM JobLog WHERE job_id > 10 ORDER BY job_id LIMIT 1`:   true,
		`SELECT DISTINCT h.sid FROM Heartbeat h, JobLog J WHERE J.job_id > 10`:   false,
		`SELECT DISTINCT h.sid FROM Heartbeat h, JobLog J WHERE J.mach_id = sid`: true,
	} {
		pl := plan(t, p, mgr, sql)
		if got := pl.Parallel > 1; got != parallel {
			t.Errorf("%s: parallel=%v, want %v\n%s", sql, got, parallel, pl.Describe())
		}
	}
}

// TestAnchoredUnionSharesTheAnchorScan: the arms of a generated recency query
// run as one semi-join when one arm's anchor predicate covers the others';
// arms with different selective anchor predicates keep their own scans.
func TestAnchoredUnionSharesTheAnchorScan(t *testing.T) {
	p, mgr := fixture(t)
	fusedSQL := `
		SELECT DISTINCT H.sid, H.recency FROM Heartbeat H, Activity A
		WHERE H.sid NOT IN ('m1') AND A.value = 'idle'
		UNION
		SELECT DISTINCT H.sid, H.recency FROM Heartbeat H, Routing R
		WHERE R.neighbor = H.sid AND R.mach_id NOT IN ('m1')`
	pl := plan(t, p, mgr, fusedSQL)
	if desc := pl.Describe(); !strings.Contains(desc, "anchored union: 2 arms, 1 anchor scan") ||
		strings.Count(desc, "scan on H") != 1 {
		t.Errorf("plan:\n%s", desc)
	}
	eachRun(t, p, mgr, fusedSQL, 3, func(run int, pl *Plan, rows [][]types.Value) {
		if len(rows) != 20 { // every source neighbours someone; m1 enters through the second arm
			t.Errorf("run %d: %d rows, want 20", run, len(rows))
		}
		// The existence arm marks 19 sources after one probe row; the keyed
		// arm then only has m1 left to find.
		if first := semiProbes(pl)[0]; first.Probed != 1 {
			t.Errorf("run %d: existence arm probed %d rows:\n%s", run, first.Probed, pl.Describe())
		}
	})

	apart := plan(t, p, mgr, `
		SELECT DISTINCT H.sid FROM Heartbeat H, Activity A WHERE H.sid IN ('m1', 'm2') AND A.value = 'idle'
		UNION
		SELECT DISTINCT H.sid FROM Heartbeat H, Routing R WHERE H.sid IN ('m2', 'm3') AND R.neighbor = H.sid`)
	if desc := apart.Describe(); strings.Contains(desc, "anchored union") || strings.Count(desc, "index scan on H.sid") != 2 {
		t.Errorf("plan:\n%s", desc)
	}
	rows, err := exec.Drain(apart.Root)
	if err != nil || len(rows) != 3 {
		t.Errorf("rows = %v, err = %v; want m1, m2, m3", rows, err)
	}
}
