package sniffer

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"trac/internal/core/report"
	"trac/internal/engine"
	"trac/internal/gridsim"
	"trac/internal/types"
)

func newDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New()
	if err := InstallSchema(db); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestInstallSchema(t *testing.T) {
	db := newDB(t)
	for _, table := range []string{ActivityTable, RoutingTable, SchedulerTable, RunningTable, JobLogTable, HeartbeatTable} {
		tbl, err := db.Catalog().Get(table)
		if err != nil {
			t.Fatalf("table %s missing: %v", table, err)
		}
		if table != HeartbeatTable && tbl.Schema.SourceColumn < 0 {
			t.Errorf("table %s has no source column", table)
		}
	}
	// Installing twice is a no-op (crash recovery re-runs the install to
	// finish partial schemas and restore API-level metadata).
	if err := InstallSchema(db); err != nil {
		t.Errorf("re-install should be idempotent: %v", err)
	}
}

func TestSnifferLoadsIntroScenario(t *testing.T) {
	// The paper's introduction: job j submitted at m1, routed to and run at
	// m2. Depending on which sniffer has polled, the DB shows one of four
	// states.
	db := newDB(t)
	lm1, lm2 := gridsim.NewMemoryLog(), gridsim.NewMemoryLog()
	t0 := time.Date(2006, 3, 15, 12, 0, 0, 0, time.UTC)
	lm1.Append(gridsim.Event{Time: t0, Machine: "m1", Type: gridsim.SubmitEvent, JobID: "j", User: "u"})
	lm1.Append(gridsim.Event{Time: t0.Add(time.Second), Machine: "m1", Type: gridsim.RouteEvent, JobID: "j", Remote: "m2"})
	lm2.Append(gridsim.Event{Time: t0.Add(2 * time.Second), Machine: "m2", Type: gridsim.StartEvent, JobID: "j"})

	s1 := New(db, "m1", lm1)
	s2 := New(db, "m2", lm2)

	countRows := func(sql string) int64 {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int()
	}

	// State 1: nothing reported.
	if countRows(`SELECT COUNT(*) FROM S`) != 0 || countRows(`SELECT COUNT(*) FROM R`) != 0 {
		t.Fatal("state 1 wrong")
	}
	// State 3: only m2 reported.
	if _, err := s2.Poll(); err != nil {
		t.Fatal(err)
	}
	if countRows(`SELECT COUNT(*) FROM S`) != 0 || countRows(`SELECT COUNT(*) FROM R WHERE jobId = 'j'`) != 1 {
		t.Fatal("state 3 wrong: R should show j running with no S row")
	}
	// State 4: both reported.
	if _, err := s1.Poll(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT schedMachineId, remoteMachineId FROM S WHERE jobId = 'j'`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("S rows = %v, %v", res, err)
	}
	if res.Rows[0][0].Str() != "m1" || res.Rows[0][1].Str() != "m2" {
		t.Errorf("S row = %v", res.Rows[0])
	}
	// Heartbeats advanced to each source's last event.
	res, _ = db.Query(`SELECT recency FROM Heartbeat WHERE sid = 'm1'`)
	if res.Rows[0][0].String() != "2006-03-15 12:00:01" {
		t.Errorf("m1 recency = %v", res.Rows[0][0])
	}
	res, _ = db.Query(`SELECT recency FROM Heartbeat WHERE sid = 'm2'`)
	if res.Rows[0][0].String() != "2006-03-15 12:00:02" {
		t.Errorf("m2 recency = %v", res.Rows[0][0])
	}
}

func TestStatusEventsAreCurrentState(t *testing.T) {
	db := newDB(t)
	l := gridsim.NewMemoryLog()
	t0 := time.Date(2006, 3, 15, 12, 0, 0, 0, time.UTC)
	l.Append(gridsim.Event{Time: t0, Machine: "m1", Type: gridsim.StatusEvent, Value: "idle"})
	l.Append(gridsim.Event{Time: t0.Add(time.Second), Machine: "m1", Type: gridsim.StatusEvent, Value: "busy"})
	s := New(db, "m1", l)
	if _, err := s.Poll(); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Query(`SELECT value FROM Activity WHERE mach_id = 'm1'`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "busy" {
		t.Errorf("Activity rows = %v, want single busy row", res.Rows)
	}
}

func TestFinishRemovesRunningRow(t *testing.T) {
	db := newDB(t)
	l := gridsim.NewMemoryLog()
	t0 := time.Date(2006, 3, 15, 12, 0, 0, 0, time.UTC)
	l.Append(gridsim.Event{Time: t0, Machine: "m2", Type: gridsim.StartEvent, JobID: "j1"})
	l.Append(gridsim.Event{Time: t0.Add(time.Second), Machine: "m2", Type: gridsim.FinishEvent, JobID: "j1"})
	s := New(db, "m2", l)
	s.Poll()
	res, _ := db.Query(`SELECT COUNT(*) FROM R`)
	if res.Rows[0][0].Int() != 0 {
		t.Error("finished job still in R")
	}
	res, _ = db.Query(`SELECT COUNT(*) FROM JobLog WHERE job_id = 'j1'`)
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("JobLog rows = %v", res.Rows[0][0])
	}
}

func TestBatchSizeCreatesLag(t *testing.T) {
	db := newDB(t)
	l := gridsim.NewMemoryLog()
	t0 := time.Date(2006, 3, 15, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		l.Append(gridsim.Event{Time: t0.Add(time.Duration(i) * time.Second),
			Machine: "m1", Type: gridsim.HeartbeatEvent})
	}
	s := New(db, "m1", l)
	s.BatchSize = 3
	n, err := s.Poll()
	if err != nil || n != 3 {
		t.Fatalf("first poll = %d, %v", n, err)
	}
	lag, _ := s.Lag()
	if lag != 7 {
		t.Errorf("lag = %d, want 7", lag)
	}
	// Recency reflects only what has been loaded.
	res, _ := db.Query(`SELECT recency FROM Heartbeat WHERE sid = 'm1'`)
	if res.Rows[0][0].String() != "2006-03-15 12:00:02" {
		t.Errorf("recency = %v", res.Rows[0][0])
	}
	for i := 0; i < 3; i++ {
		s.Poll()
	}
	if s.Applied() != 10 {
		t.Errorf("applied = %d", s.Applied())
	}
}

func TestPauseResume(t *testing.T) {
	db := newDB(t)
	l := gridsim.NewMemoryLog()
	l.Append(gridsim.Event{Time: time.Now().UTC(), Machine: "m1", Type: gridsim.HeartbeatEvent})
	s := New(db, "m1", l)
	s.Pause()
	if !s.Paused() {
		t.Error("Paused() false after Pause")
	}
	if n, _ := s.Poll(); n != 0 {
		t.Error("paused sniffer applied events")
	}
	s.Resume()
	if n, _ := s.Poll(); n != 1 {
		t.Error("resumed sniffer did not apply")
	}
}

func TestForeignEventRejected(t *testing.T) {
	db := newDB(t)
	l := gridsim.NewMemoryLog()
	l.Append(gridsim.Event{Time: time.Now().UTC(), Machine: "other", Type: gridsim.HeartbeatEvent})
	s := New(db, "m1", l)
	if _, err := s.Poll(); err == nil {
		t.Error("foreign event should be rejected")
	}
}

func TestFleetEndToEnd(t *testing.T) {
	// Simulate a small grid, sniff everything, and ask a monitoring query
	// with a recency report.
	db := newDB(t)
	sim, err := gridsim.New(gridsim.Config{Machines: 6, Seed: 11, JobRate: 1, HeartbeatEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewFleet(db, sim)
	if err := sim.Run(40); err != nil {
		t.Fatal(err)
	}
	if err := fleet.DrainAll(); err != nil {
		t.Fatal(err)
	}

	// Every machine must have a heartbeat.
	res, err := db.Query(`SELECT COUNT(*) FROM Heartbeat`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 6 {
		t.Fatalf("heartbeats = %v", res.Rows[0][0])
	}

	// The per-source invariant: JobLog rows from a source never exceed its
	// recency.
	res, err = db.Query(`SELECT mach_id, event_time FROM JobLog`)
	if err != nil {
		t.Fatal(err)
	}
	hb := map[string]time.Time{}
	hres, _ := db.Query(`SELECT sid, recency FROM Heartbeat`)
	for _, row := range hres.Rows {
		hb[row[0].Str()] = row[1].Time()
	}
	for _, row := range res.Rows {
		if row[1].Time().After(hb[row[0].Str()]) {
			t.Fatalf("event newer than source recency: %v > %v", row[1], hb[row[0].Str()])
		}
	}

	// Recency report over a §4.2-style query.
	sess := db.NewSession()
	defer sess.Close()
	rep, err := report.Run(sess, `SELECT R.runningMachineId FROM R WHERE R.jobId = 'j1'`, report.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if total := len(rep.Normal) + len(rep.Exceptional); total != 6 {
		t.Errorf("Q3-style query: all 6 sources relevant, got %d", total)
	}
}

func TestLaggingSnifferShowsInconsistency(t *testing.T) {
	// Two machines report; one sniffer lags. A recency report must expose
	// the widened bound of inconsistency.
	db := newDB(t)
	sim, err := gridsim.New(gridsim.Config{Machines: 2, Seed: 3, JobRate: -1, HeartbeatEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewFleet(db, sim)
	slow := fleet.Sniffers[1]
	if err := sim.Run(5); err != nil {
		t.Fatal(err)
	}
	fleet.DrainAll()
	slow.Pause()
	if err := sim.Run(60); err != nil {
		t.Fatal(err)
	}
	fleet.PollAll() // only the fast sniffer advances

	sess := db.NewSession()
	defer sess.Close()
	rep, err := report.Run(sess, `SELECT mach_id FROM Activity`, report.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bound < 55*time.Second {
		t.Errorf("bound = %v; expected the paused source to lag by ~60 virtual seconds", rep.Bound)
	}
}

func TestRegisterSource(t *testing.T) {
	db := newDB(t)
	epoch := fmt.Sprintf("TIMESTAMP '%s'", "1970-01-01 00:00:00")
	_ = epoch
	ts, _ := time.Parse("2006-01-02 15:04:05", "1970-01-01 00:00:00")
	for i := 0; i < 2; i++ { // idempotent
		if err := RegisterSource(db, "mX", timeValue(ts)); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := db.Query(`SELECT COUNT(*) FROM Heartbeat WHERE sid = 'mX'`)
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("rows = %v", res.Rows[0][0])
	}
}

func TestFleetGet(t *testing.T) {
	db := newDB(t)
	sim, _ := gridsim.New(gridsim.Config{Machines: 3, Seed: 1})
	fleet := NewFleet(db, sim)
	if fleet.Get("Tao2") == nil {
		t.Error("Get(Tao2) = nil")
	}
	if fleet.Get("nope") != nil {
		t.Error("Get(nope) should be nil")
	}
	if !strings.HasPrefix(fleet.Sniffers[0].Source(), "Tao") {
		t.Error("source naming wrong")
	}
}

func timeValue(t time.Time) types.Value { return types.NewTime(t) }

// TestMotivatingAggregationQuery runs the intro's "how many jobs has each
// user run" style monitoring query (GROUP BY over sniffed data) with a
// recency report: the answer depends on which schedulers have reported in,
// and the report says exactly which.
func TestMotivatingAggregationQuery(t *testing.T) {
	db := newDB(t)
	sim, err := gridsim.New(gridsim.Config{Machines: 8, Schedulers: 2, Seed: 99, JobRate: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewFleet(db, sim)
	if err := sim.Run(30); err != nil {
		t.Fatal(err)
	}
	// Only scheduler Tao1's sniffer reports; Tao2's submissions are missing.
	if _, err := fleet.Get("Tao1").Poll(); err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession()
	defer sess.Close()
	rep, err := report.Run(sess, `SELECT job_user, COUNT(*) FROM S GROUP BY job_user ORDER BY job_user`,
		report.Config{SkipTempTables: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Result.Rows) == 0 {
		t.Fatal("no per-user rows at all")
	}
	// All 8 machines are relevant (no source predicate), and because Tao2
	// has never reported, the report's recency table has only sources that
	// did — exposing the incompleteness.
	if rep.Minimal {
		t.Error("aggregate query must be flagged as upper bound")
	}
	found := false
	for _, r := range rep.Reasons {
		if strings.Contains(r, "SPJ core") {
			found = true
		}
	}
	if !found {
		t.Errorf("reasons = %v", rep.Reasons)
	}
	// Counts from Tao1 only: fewer or equal to the simulator's truth.
	total := int64(0)
	for _, row := range rep.Result.Rows {
		total += row[1].Int()
	}
	if total == 0 || total > int64(len(sim.Jobs())) {
		t.Errorf("reported %d jobs, simulator created %d", total, len(sim.Jobs()))
	}
}

// TestHeartbeatProtocolTradeoff demonstrates §3.1: with the plain
// last-event protocol, a quiet-but-healthy machine looks very out of date;
// the heartbeat protocol ("nothing to report" records) keeps its recency
// honest. The observable difference is the report's bound of inconsistency.
func TestHeartbeatProtocolTradeoff(t *testing.T) {
	run := func(heartbeatEvery int) time.Duration {
		db := newDB(t)
		sim, err := gridsim.New(gridsim.Config{
			Machines: 4, Schedulers: 1, Seed: 5,
			JobRate:        -1, // nothing ever happens: all machines are quiet
			HeartbeatEvery: heartbeatEvery,
		})
		if err != nil {
			t.Fatal(err)
		}
		fleet := NewFleet(db, sim)
		if err := sim.Run(120); err != nil {
			t.Fatal(err)
		}
		if err := fleet.DrainAll(); err != nil {
			t.Fatal(err)
		}
		sess := db.NewSession()
		defer sess.Close()
		rep, err := report.Run(sess, `SELECT mach_id FROM Activity`, report.Config{SkipTempTables: true})
		if err != nil {
			t.Fatal(err)
		}
		// Age of the least recent source relative to the most recent one.
		return rep.Bound
	}

	// Without heartbeats every machine's recency froze at its initial
	// status event (tick 0): the bound collapses to ~0 but the data is two
	// minutes stale — indistinguishable from four dead machines.
	withoutHB := run(0)
	// With heartbeats recencies advance with virtual time.
	withHB := run(4)
	if withoutHB > time.Second {
		t.Errorf("without heartbeats all sources frozen equally, bound = %v", withoutHB)
	}
	if withHB > 10*time.Second {
		t.Errorf("with heartbeats bound should stay tight, got %v", withHB)
	}

	// The real difference: absolute recency. Re-run and compare the max
	// recency against the simulation clock.
	db := newDB(t)
	sim, _ := gridsim.New(gridsim.Config{Machines: 4, Schedulers: 1, Seed: 5, JobRate: -1, HeartbeatEvery: 4})
	fleet := NewFleet(db, sim)
	sim.Run(120)
	fleet.DrainAll()
	res, _ := db.Query(`SELECT MAX(recency) FROM Heartbeat`)
	maxRec := res.Rows[0][0].Time()
	lag := sim.Now().Sub(maxRec)
	if lag > 5*time.Second {
		t.Errorf("heartbeat protocol: recency lags the grid clock by %v", lag)
	}

	db2 := newDB(t)
	sim2, _ := gridsim.New(gridsim.Config{Machines: 4, Schedulers: 1, Seed: 5, JobRate: -1, HeartbeatEvery: 0})
	fleet2 := NewFleet(db2, sim2)
	sim2.Run(120)
	fleet2.DrainAll()
	res2, _ := db2.Query(`SELECT MAX(recency) FROM Heartbeat`)
	lag2 := sim2.Now().Sub(res2.Rows[0][0].Time())
	if lag2 < 100*time.Second {
		t.Errorf("last-event protocol on a quiet grid should lag ~120s, got %v", lag2)
	}
}

// TestPipelineConcurrencyStress runs loaders, reporters and checkpoints
// simultaneously; under -race this exercises every cross-component lock.
func TestPipelineConcurrencyStress(t *testing.T) {
	db, err := engine.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := InstallSchema(db); err != nil {
		t.Fatal(err)
	}
	sim, err := gridsim.New(gridsim.Config{Machines: 10, Schedulers: 2, Seed: 31, JobRate: 2, HeartbeatEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewFleet(db, sim)

	done := make(chan struct{})
	var wg sync.WaitGroup
	// Simulation + loader goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 80; i++ {
			if err := sim.Tick(); err != nil {
				t.Error(err)
				return
			}
			if _, err := fleet.PollAll(); err != nil {
				t.Error(err)
				return
			}
		}
		close(done)
	}()
	// Concurrent reporters.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				sess := db.NewSession()
				rep, err := report.Run(sess, `SELECT mach_id, value FROM Activity WHERE value = 'busy'`,
					report.Config{SkipTempTables: true})
				if err != nil {
					t.Error(err)
					sess.Close()
					return
				}
				// Internal consistency of each report.
				if len(rep.Normal) > 0 && rep.Most.Recency.Before(rep.Least.Recency) {
					t.Errorf("report min/max inverted: %v > %v", rep.Least, rep.Most)
				}
				sess.Close()
			}
		}()
	}
	// Concurrent checkpoints.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := db.CheckpointDir(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestInstallMetadataBumpsCatalogVersion: source columns and domains change
// what a recency query generated over the monitoring tables says, so
// installing them — again, as recovery does — moves the catalog version and
// no plan made before is reused.
func TestInstallMetadataBumpsCatalogVersion(t *testing.T) {
	db := newDB(t)
	before := db.CatalogVersion()
	if err := InstallMetadata(db); err != nil {
		t.Fatal(err)
	}
	if after := db.CatalogVersion(); after <= before {
		t.Errorf("catalog version %d before InstallMetadata, %d after; want it moved", before, after)
	}
}
