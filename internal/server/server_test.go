package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trac"
	tracclient "trac/client/trac"
	"trac/internal/engine"
	"trac/internal/server"
	"trac/internal/workload"
)

var serveSpec = workload.Spec{TotalRows: 2000, DataSources: 100}

// startServer serves db on a loopback listener and returns the server plus
// its address; shutdown is registered as cleanup.
func startServer(t *testing.T, db *trac.DB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	cfg.DB = db
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, l.Addr().String()
}

// wireRowSet adapts a wire result for workload.RowSet comparison.
func wireRowSet(res *tracclient.Result) []string {
	return workload.RowSet(&engine.Result{Columns: res.Columns, Rows: res.Rows})
}

// assertReportsMatch compares every consumer-visible recency-report field
// between the embedded API's report and the wire report (temp-table names
// are session-scoped counters, so only their presence is compared).
func assertReportsMatch(t *testing.T, label string, want *trac.Report, got *tracclient.Report) {
	t.Helper()
	if a, b := wireRowSet(got.Result), workload.RowSet(want.Result); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("%s: result rows diverge\nwire:     %v\nembedded: %v", label, a, b)
	}
	if got.RecencySQL != want.RecencySQL || got.Minimal != want.Minimal || got.Empty != want.Empty {
		t.Errorf("%s: generation diverges: sql %q/%q minimal %v/%v empty %v/%v",
			label, got.RecencySQL, want.RecencySQL, got.Minimal, want.Minimal, got.Empty, want.Empty)
	}
	if fmt.Sprint(got.Reasons) != fmt.Sprint(want.Reasons) {
		t.Errorf("%s: reasons diverge: %v vs %v", label, got.Reasons, want.Reasons)
	}
	if len(got.Normal) != len(want.Normal) || len(got.Exceptional) != len(want.Exceptional) {
		t.Fatalf("%s: classification diverges: %d/%d normal, %d/%d exceptional",
			label, len(got.Normal), len(want.Normal), len(got.Exceptional), len(want.Exceptional))
	}
	for i := range got.Normal {
		if got.Normal[i].Sid != want.Normal[i].Sid || !got.Normal[i].Recency.Equal(want.Normal[i].Recency) {
			t.Errorf("%s: normal[%d] = %+v, want %+v", label, i, got.Normal[i], want.Normal[i])
		}
	}
	for i := range got.Exceptional {
		if got.Exceptional[i].Sid != want.Exceptional[i].Sid || !got.Exceptional[i].Recency.Equal(want.Exceptional[i].Recency) {
			t.Errorf("%s: exceptional[%d] = %+v, want %+v", label, i, got.Exceptional[i], want.Exceptional[i])
		}
	}
	if got.Least.Sid != want.Least.Sid || !got.Least.Recency.Equal(want.Least.Recency) ||
		got.Most.Sid != want.Most.Sid || !got.Most.Recency.Equal(want.Most.Recency) ||
		got.Bound != want.Bound {
		t.Errorf("%s: bound diverges: [%v, %v] %v vs [%v, %v] %v",
			label, got.Least, got.Most, got.Bound, want.Least, want.Most, want.Bound)
	}
	if (got.NormalTable != "") != (want.NormalTable != "") {
		t.Errorf("%s: normal temp table presence diverges: %q vs %q", label, got.NormalTable, want.NormalTable)
	}
}

// reportQueries are the recency-report workload: the paper's Q1–Q4 plus an
// unselective probe.
func reportQueries(t *testing.T) []string {
	t.Helper()
	queries := []string{}
	for _, name := range []string{"Q1", "Q2", "Q3", "Q4"} {
		sql, err := workload.Query(name)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, sql)
	}
	return append(queries, `SELECT mach_id, value FROM Activity WHERE value = 'idle'`)
}

// testWireEquivalence proves results received through the client driver are
// identical to the embedded API on the same database: the full query
// corpus, recency reports in every option shape, and prepared statements.
func testWireEquivalence(t *testing.T, db *trac.DB) {
	_, addr := startServer(t, db, server.Config{Token: "hunter2"})
	c, err := tracclient.Dial(addr, tracclient.WithToken("hunter2"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Shards() != db.Shards() {
		t.Fatalf("handshake shards = %d, want %d", c.Shards(), db.Shards())
	}

	corpus, err := workload.EquivCorpus(db.Engine().Catalog())
	if err != nil {
		t.Fatal(err)
	}
	for qi, sql := range corpus {
		want, err := db.Query(sql)
		if err != nil {
			t.Fatalf("q%d embedded: %v", qi, err)
		}
		got, err := c.Query(sql)
		if err != nil {
			t.Fatalf("q%d wire: %v", qi, err)
		}
		if a, b := wireRowSet(got), workload.RowSet(want); fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("q%d diverges\nquery: %s\nwire:     %v\nembedded: %v", qi, sql, a, b)
		}
	}

	optShapes := []struct {
		name     string
		embedded []trac.Option
		wire     []tracclient.ReportOption
	}{
		{name: "default"},
		{name: "naive-notemp",
			embedded: []trac.Option{trac.Naive(), trac.WithoutTempTables()},
			wire:     []tracclient.ReportOption{tracclient.Naive(), tracclient.WithoutTempTables()}},
		{name: "mad-z2-nostats-nocache",
			embedded: []trac.Option{trac.MADDetector(), trac.ZThreshold(2), trac.WithoutStats(), trac.WithoutPlanCache()},
			wire:     []tracclient.ReportOption{tracclient.MADDetector(), tracclient.ZThreshold(2), tracclient.WithoutStats(), tracclient.WithoutPlanCache()}},
	}
	for qi, sql := range reportQueries(t) {
		for _, shape := range optShapes {
			sess := db.NewSession()
			want, err := sess.RecencyReport(sql, shape.embedded...)
			if err != nil {
				t.Fatalf("q%d [%s] embedded report: %v", qi, shape.name, err)
			}
			got, err := c.Report(sql, shape.wire...)
			if err != nil {
				t.Fatalf("q%d [%s] wire report: %v", qi, shape.name, err)
			}
			assertReportsMatch(t, fmt.Sprintf("q%d [%s]", qi, shape.name), want, got)
			sess.Close()
		}
	}

	// Prepared statements: generation outcome and every execution must
	// match a fresh embedded report.
	for qi, sql := range reportQueries(t) {
		stmt, err := c.Prepare(sql)
		if err != nil {
			t.Fatalf("q%d prepare: %v", qi, err)
		}
		pr, err := db.PrepareReport(sql)
		if err != nil {
			t.Fatalf("q%d embedded prepare: %v", qi, err)
		}
		if stmt.RecencySQL != pr.RecencySQL() || stmt.Minimal != pr.Minimal() {
			t.Errorf("q%d: prepared generation diverges: %q/%q minimal %v/%v",
				qi, stmt.RecencySQL, pr.RecencySQL(), stmt.Minimal, pr.Minimal())
		}
		for rep := 0; rep < 2; rep++ {
			sess := db.NewSession()
			want, err := pr.Execute(sess)
			if err != nil {
				t.Fatalf("q%d embedded execute: %v", qi, err)
			}
			got, err := stmt.Execute()
			if err != nil {
				t.Fatalf("q%d wire execute: %v", qi, err)
			}
			assertReportsMatch(t, fmt.Sprintf("q%d prepared #%d", qi, rep), want, got)
			sess.Close()
		}
		if err := stmt.Close(); err != nil {
			t.Fatalf("q%d stmt close: %v", qi, err)
		}
	}
}

func TestWireEquivalenceUnsharded(t *testing.T) {
	eng, err := workload.Build(serveSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range workload.NullProbeStmts() {
		eng.MustExec(stmt)
	}
	testWireEquivalence(t, trac.WrapEngine(eng))
}

func TestWireEquivalenceSharded(t *testing.T) {
	r, err := workload.BuildSharded(serveSpec, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := trac.WrapRouter(r)
	for _, stmt := range workload.NullProbeStmts() {
		db.MustExec(stmt)
	}
	testWireEquivalence(t, db)
}

func TestAuth(t *testing.T) {
	_, addr := startServer(t, trac.Open(), server.Config{Token: "correct"})
	if _, err := tracclient.Dial(addr, tracclient.WithToken("wrong")); err == nil {
		t.Fatal("bad token accepted")
	}
	var se *tracclient.ServerError
	_, err := tracclient.Dial(addr)
	if !errors.As(err, &se) {
		t.Fatalf("missing token: err = %v, want ServerError", err)
	}
	c, err := tracclient.Dial(addr, tracclient.WithToken("correct"))
	if err != nil {
		t.Fatalf("good token refused: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	c.Close()
}

func TestServerErrorKeepsConnectionUsable(t *testing.T) {
	db := trac.Open()
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	_, addr := startServer(t, db, server.Config{})
	c, err := tracclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var se *tracclient.ServerError
	if _, err := c.Query(`SELECT * FROM NoSuchTable`); !errors.As(err, &se) {
		t.Fatalf("err = %v, want ServerError", err)
	}
	if _, err := c.Exec(`INSERT INTO T VALUES (1)`); err != nil {
		t.Fatalf("exec after error: %v", err)
	}
	res, err := c.Query(`SELECT a FROM T`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("query after error: %v, %d rows", err, len(res.Rows))
	}
}

// countTempTables reports residual sys_temp_* tables on every shard.
func countTempTables(db *trac.DB) int {
	n := 0
	for _, name := range db.Engine().Catalog().Names() {
		if strings.HasPrefix(name, "sys_temp_") {
			n++
		}
	}
	return n
}

// TestAbruptDisconnectReclaimsSessions is the leak test: 100 connections
// each materialize report temp tables and then drop the TCP connection
// without any protocol goodbye; the server must run Session.Close for every
// one, leaving zero residual temp tables.
func TestAbruptDisconnectReclaimsSessions(t *testing.T) {
	db := trac.Open()
	db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT)`)
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	if err := db.SetSourceColumn("Activity", "mach_id"); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO Activity VALUES ('m1', 'idle'), ('m2', 'busy')`)
	db.MustExec(`INSERT INTO Heartbeat VALUES ('m1', '2006-03-15 14:20:05'), ('m2', '2006-03-15 14:40:05')`)

	_, addr := startServer(t, db, server.Config{})
	const conns = 100
	for i := 0; i < conns; i++ {
		c, err := tracclient.Dial(addr)
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		rep, err := c.Report(`SELECT mach_id FROM Activity WHERE value = 'idle'`)
		if err != nil {
			t.Fatalf("conn %d report: %v", i, err)
		}
		if rep.NormalTable == "" {
			t.Fatalf("conn %d: report did not materialize temp tables", i)
		}
		// Abrupt close: no goodbye frame, mid-session.
		c.Close()
	}

	// Cleanup runs in each connection goroutine's exit path; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := countTempTables(db); n == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%d residual sys_temp_* tables after %d abrupt disconnects", n, conns)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPrepareExecuteDDLRace is the stale-plan hammer: many client sessions
// race Prepare/Execute against a DDL (AddCheck) that bumps the catalog
// version and makes the query provably empty. Every wire report must be
// consistent with SOME catalog state (non-empty with sources before the
// DDL, Empty after) and once the DDL commits, executes must switch to Empty
// — the version-keyed plan cache may never serve the stale plan. Run under
// -race via make check.
func TestPrepareExecuteDDLRace(t *testing.T) {
	db := trac.Open()
	db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT)`)
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	if err := db.SetSourceColumn("Activity", "mach_id"); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO Activity VALUES ('m1', 'idle'), ('m2', 'busy')`)
	db.MustExec(`INSERT INTO Heartbeat VALUES ('m1', '2006-03-15 14:20:05'), ('m2', '2006-03-15 14:40:05')`)

	_, addr := startServer(t, db, server.Config{})
	// 'down' is satisfiable until the CHECK below constrains value's legal
	// set, then provably empty — so Empty reports witness the new catalog.
	const sql = `SELECT mach_id FROM Activity WHERE value = 'down'`

	const sessions = 8
	var (
		wg         sync.WaitGroup
		ddlDone    atomic.Bool
		preEmpty   atomic.Int64 // Empty seen before the DDL committed: a stale... impossible state
		postSeen   atomic.Int64
		staleAfter atomic.Int64 // non-Empty seen after the DDL committed: stale plan served
	)
	start := make(chan struct{})
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := tracclient.Dial(addr)
			if err != nil {
				t.Errorf("session %d: %v", id, err)
				return
			}
			defer c.Close()
			stmt, err := c.Prepare(sql)
			if err != nil {
				t.Errorf("session %d prepare: %v", id, err)
				return
			}
			<-start
			for iter := 0; iter < 60; iter++ {
				// Order matters: sample the DDL flag BEFORE executing. If the
				// DDL was already committed then, the report MUST be Empty.
				ddlWasDone := ddlDone.Load()
				rep, err := stmt.Execute()
				if err != nil {
					t.Errorf("session %d execute: %v", id, err)
					return
				}
				if rep.Empty && !ddlWasDone && !ddlDone.Load() {
					preEmpty.Add(1)
				}
				if ddlWasDone {
					postSeen.Add(1)
					if !rep.Empty {
						staleAfter.Add(1)
					}
				}
			}
		}(i)
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	if err := db.AddCheck("Activity", `value IN ('idle', 'busy')`); err != nil {
		t.Fatal(err)
	}
	ddlDone.Store(true)
	wg.Wait()

	if preEmpty.Load() != 0 {
		t.Errorf("%d Empty reports before the DDL existed", preEmpty.Load())
	}
	if postSeen.Load() == 0 {
		t.Fatal("no executions observed after the DDL; hammer raced past it")
	}
	if staleAfter.Load() != 0 {
		t.Errorf("stale plan served over the wire: %d non-Empty reports after catalog bump (%d post-DDL executions)",
			staleAfter.Load(), postSeen.Load())
	}
}

// TestSessionQuotaSheds drives pipelined frames past the per-session quota
// on a raw connection (the driver serializes, so this needs hand-rolled
// frames) and expects Busy(quota) for the excess while admitted requests
// still answer in order. The lone worker is held on a gate the test
// releases, so the admitted requests stay in flight and the quota is reached
// by construction rather than by racing the worker.
func TestSessionQuotaSheds(t *testing.T) {
	db := trac.Open()
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	db.MustExec(`INSERT INTO T VALUES (1)`)
	const quota = 2
	srv, addr := startServer(t, db, server.Config{
		SessionQuota: quota,
		Sched:        server.SchedConfig{Workers: 1, QueueDepth: 64, AdmissionTimeout: time.Minute},
	})
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	defer open() // a failing assertion must not leave the worker wedged for Shutdown
	if err := srv.Scheduler().Submit(&server.Task{Run: func() { <-gate }, Shed: func(uint8) {}}); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := server.WriteFrame(nc, server.FrameHello, server.EncodeHello(server.Hello{Version: server.ProtocolVersion})); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := server.ReadFrame(nc); err != nil || ft != server.FrameWelcome {
		t.Fatalf("handshake: %v %v", ft, err)
	}
	// quota requests are admitted and queue behind the gate; everything the
	// session reads after them finds the quota full. The burst stays within
	// the session's response window (quota+8) so the reader never stalls.
	const burst = quota + 6
	for i := 0; i < burst; i++ {
		if err := server.WriteFrame(nc, server.FrameQuery, server.EncodeSQL(`SELECT a FROM T`)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().ShedQuota < burst-quota {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of the %d requests past the quota were shed", srv.Stats().ShedQuota, burst-quota)
		}
		time.Sleep(time.Millisecond)
	}
	open()
	for i := 0; i < burst; i++ {
		ft, payload, err := server.ReadFrame(nc)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if i < quota {
			if ft != server.FrameResult {
				t.Fatalf("response %d: %v, want the admitted request's result", i, ft)
			}
			continue
		}
		if ft != server.FrameBusy {
			t.Fatalf("response %d: %v, want Busy", i, ft)
		}
		if code, err := server.DecodeBusy(payload); err != nil || code != server.BusyQuota {
			t.Fatalf("response %d: busy code %d (%v), want BusyQuota", i, code, err)
		}
	}
}

// TestOverloadSheds saturates a deliberately tiny admission layer with
// concurrent clients; excess load must come back as ErrBusy fast, the rest
// must succeed, and the scheduler must account for every shed.
func TestOverloadSheds(t *testing.T) {
	db := trac.Open()
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	for i := 0; i < 40; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO T VALUES (%d)`, i))
	}
	srv, addr := startServer(t, db, server.Config{
		SessionQuota: 64,
		Sched:        server.SchedConfig{Workers: 1, QueueDepth: 1, AdmissionTimeout: time.Millisecond},
	})
	const clients = 16
	var ok, shed, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := tracclient.Dial(addr)
			if err != nil {
				other.Add(1)
				return
			}
			defer c.Close()
			for iter := 0; iter < 25; iter++ {
				_, err := c.Query(`SELECT COUNT(*) FROM T WHERE a >= 0`)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, tracclient.ErrBusy):
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("%d non-busy errors under overload", other.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded under overload")
	}
	if shed.Load() == 0 {
		t.Skip("overload never engaged on this machine (queue drained faster than clients filled it)")
	}
	st := srv.Stats()
	if st.Sched.Shed() == 0 {
		t.Fatalf("clients saw %d busy but scheduler counted none: %+v", shed.Load(), st.Sched)
	}
}

// TestGracefulShutdown proves drain semantics: a request in flight when
// Shutdown starts still gets its response, the session's temp tables are
// reclaimed, and new connections are refused.
func TestGracefulShutdown(t *testing.T) {
	db := trac.Open()
	db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT)`)
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	if err := db.SetSourceColumn("Activity", "mach_id"); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO Activity VALUES ('m1', 'idle')`)
	db.MustExec(`INSERT INTO Heartbeat VALUES ('m1', '2006-03-15 14:20:05')`)

	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	c, err := tracclient.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report(`SELECT mach_id FROM Activity WHERE value = 'idle'`); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
	if _, err := tracclient.Dial(l.Addr().String(), tracclient.WithDialTimeout(500*time.Millisecond)); err == nil {
		t.Fatal("connection accepted after shutdown")
	}
	if n := countTempTables(db); n != 0 {
		t.Fatalf("%d residual temp tables after drain", n)
	}
	// The drained client's connection is closed; further use errors cleanly.
	if _, err := c.Query(`SELECT 1`); err == nil {
		t.Fatal("query succeeded on a drained connection")
	}
	c.Close()
}

// TestFailedQueryReapsScanWorkers is the wire-level half of the executor's
// failed-Open fix: a hash join whose build side fails at run time
// (arithmetic on TEXT) has already started the parallel scan of its probe
// side. Ten such queries, embedded and then through the client driver, must
// leave the goroutine count where it was — before the fix each one parked its
// scan workers on the exchange forever, and any client could do that to a
// server.
func TestFailedQueryReapsScanWorkers(t *testing.T) {
	eng, err := workload.Build(serveSpec)
	if err != nil {
		t.Fatal(err)
	}
	eng.Planner().ParallelThreshold, eng.Planner().MaxParallel = 50, 3
	db := trac.WrapEngine(eng)
	_, addr := startServer(t, db, server.Config{})
	c, err := tracclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sql = `SELECT COUNT(*) FROM Routing R, Activity A WHERE R.neighbor = A.mach_id AND R.mach_id + 1 = 2`
	if plan, err := db.Explain(sql); err != nil || !strings.Contains(plan, "parallel seq scan on A") {
		t.Fatalf("fixture: the probe side should be a parallel scan:\n%s\n%v", plan, err)
	}
	settled := func(base int) int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}
	if err := c.Ping(); err != nil { // the connection's goroutines are up
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := db.Query(sql); err == nil || !strings.Contains(err.Error(), "arithmetic") {
			t.Fatalf("embedded: err = %v, want an arithmetic type error", err)
		}
	}
	if n := settled(base); n > base {
		t.Errorf("embedded: %d goroutines after ten failed queries, %d before", n, base)
	}
	for i := 0; i < 10; i++ {
		var se *tracclient.ServerError
		if _, err := c.Query(sql); !errors.As(err, &se) {
			t.Fatalf("wire: err = %v, want a ServerError", err)
		}
	}
	if n := settled(base); n > base {
		t.Errorf("wire: %d goroutines after ten failed queries, %d before", n, base)
	}
}
