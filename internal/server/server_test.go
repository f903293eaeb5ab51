package server_test

import (
	"bufio"
	"bytes"
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
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startServerOn(t, db, cfg, l)
}

// startServerOn is startServer over the caller's listener.
func startServerOn(t *testing.T, db *trac.DB, cfg server.Config, l net.Listener) (*server.Server, string) {
	t.Helper()
	cfg.DB = db
	srv, err := server.New(cfg)
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
			// Prepare warmed the plan cache, so every execution is a hit:
			// no parse, no generation.
			if !got.CachedPlan {
				t.Errorf("q%d prepared #%d: not served from the plan cache", qi, rep)
			}
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

// TestHandshakeRefusesOtherProtocolVersions: a client of another protocol
// version gets the version error frame before the server closes, whether
// its Hello is laid out as version 1 laid it out (u32 big-endian version,
// u32 big-endian token length, token) or as this version's with another
// number in it.
func TestHandshakeRefusesOtherProtocolVersions(t *testing.T) {
	_, addr := startServer(t, trac.Open(), server.Config{})
	v1 := []byte{0, 0, 0, 1, 0, 0, 0, 2, 'o', 'k'}
	for name, hello := range map[string][]byte{
		"v1 Hello":   v1,
		"version 99": server.EncodeHello(server.Hello{Version: 99, Token: "ok"}),
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(30 * time.Second))
		if err := server.WriteFrame(nc, server.FrameHello, hello); err != nil {
			t.Fatal(err)
		}
		ft, payload, err := server.ReadFrame(nc)
		if err != nil || ft != server.FrameError {
			t.Fatalf("%s: answered %v, %v; want an Error frame", name, ft, err)
		}
		msg, err := server.DecodeError(payload)
		want := fmt.Sprintf("(server speaks %d)", server.ProtocolVersion)
		if err != nil || !strings.HasPrefix(msg, "unsupported protocol version ") || !strings.HasSuffix(msg, want) {
			t.Fatalf("%s: error %q, %v", name, msg, err)
		}
		if _, _, err := server.ReadFrame(nc); err == nil {
			t.Fatalf("%s: connection left open after the version error", name)
		}
		nc.Close()
	}
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
// version and makes the query provably empty, while SetColumnDomain keeps
// bumping it too (with a domain that leaves the answer alone), so prepared
// reports and the planner's templates of their statements are dropped and
// rebuilt under the sessions' feet. Every wire report must be consistent
// with SOME catalog state (non-empty with sources before the DDL, Empty
// after) and once the DDL commits, executes must switch to Empty — neither
// the version-keyed plan cache nor a plan template may ever serve the stale
// plan. Run under -race via make check.
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
	stopBumps := make(chan struct{})
	bumps := make(chan error, 1)
	go func() {
		defer close(bumps)
		for {
			select {
			case <-stopBumps:
				return
			default:
			}
			if err := db.SetColumnDomain("Activity", "value", trac.StringDomain("idle", "busy", "down")); err != nil {
				bumps <- err
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	close(start)
	time.Sleep(5 * time.Millisecond)
	if err := db.AddCheck("Activity", `value IN ('idle', 'busy')`); err != nil {
		t.Fatal(err)
	}
	ddlDone.Store(true)
	wg.Wait()
	close(stopBumps)
	if err := <-bumps; err != nil {
		t.Fatalf("SetColumnDomain: %v", err)
	}

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

// dialRaw opens a connection and completes the handshake by hand, for tests
// that need to pipeline frames (the driver sends one request at a time).
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(30 * time.Second)) // a lost response fails the test instead of hanging it
	if err := server.WriteFrame(nc, server.FrameHello, server.EncodeHello(server.Hello{Version: server.ProtocolVersion})); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := server.ReadFrame(nc); err != nil || ft != server.FrameWelcome {
		t.Fatalf("handshake: %v %v", ft, err)
	}
	return nc
}

// frame renders one frame's bytes.
func frame(t *testing.T, ft server.FrameType, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := server.WriteFrame(&b, ft, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// countingListener counts the Write calls the server makes on the
// connections it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{nc, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestHandshakeIsOneWrite: the server answers a Hello in one write, a
// Welcome or a refusal, and a request sent in the same write as the Hello is
// served after the Welcome.
func TestHandshakeIsOneWrite(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	_, addr := startServerOn(t, trac.Open(), server.Config{Token: "ok"}, countingListener{l, &writes})
	for _, tc := range []struct {
		token string
		ping  bool // a Ping follows the Hello in the same write
		want  []server.FrameType
	}{
		{"ok", false, []server.FrameType{server.FrameWelcome}},
		{"wrong", false, []server.FrameType{server.FrameError}},
		{"ok", true, []server.FrameType{server.FrameWelcome, server.FramePong}},
	} {
		before := writes.Load()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(30 * time.Second))
		req := frame(t, server.FrameHello, server.EncodeHello(server.Hello{Version: server.ProtocolVersion, Token: tc.token}))
		if tc.ping {
			req = append(req, frame(t, server.FramePing, nil)...)
		}
		if _, err := nc.Write(req); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(nc)
		for i, want := range tc.want {
			if ft, _, err := server.ReadFrame(br); err != nil || ft != want {
				t.Fatalf("token %q, ping %v: frame %d is %v (%v), want %v", tc.token, tc.ping, i, ft, err, want)
			}
		}
		// Nothing else is answered, so every write has landed.
		if n := writes.Load() - before; !tc.ping && n != 1 {
			t.Errorf("token %q: the handshake took %d writes, want 1", tc.token, n)
		}
		nc.Close()
	}
}

// TestPipelinedRequestsRunInProgramOrder pipelines frames on a raw
// connection, with more execution slots than one: a session's requests must
// still run one after another in the order they were sent, answer in that
// order, and a burst must be answered in far fewer writes than frames.
func TestPipelinedRequestsRunInProgramOrder(t *testing.T) {
	open := func() *trac.DB {
		db := trac.Open()
		db.MustExec(`CREATE TABLE c (v BIGINT)`)
		db.MustExec(`INSERT INTO c VALUES (1)`)
		db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT)`)
		db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
		if err := db.SetSourceColumn("Activity", "mach_id"); err != nil {
			t.Fatal(err)
		}
		db.MustExec(`INSERT INTO Activity VALUES ('m1', 'idle')`)
		db.MustExec(`INSERT INTO Heartbeat VALUES ('m1', '2006-03-15 14:20:05')`)
		return db
	}
	db, serial := open(), open()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	_, addr := startServerOn(t, db, server.Config{Sched: server.SchedConfig{Workers: 4}}, countingListener{l, &writes})
	nc := dialRaw(t, addr)

	// The two updates do not commute, so any two of them applied out of
	// order change every value read after them; the serial twin says what
	// each read must return.
	const updates = 200
	var burst []byte
	want := make([]int64, updates)
	for i := range want {
		sql := `UPDATE c SET v = v*2`
		if i%2 == 1 {
			sql = `UPDATE c SET v = v+1`
		}
		burst = append(burst, frame(t, server.FrameExec, server.EncodeSQL(sql))...)
		burst = append(burst, frame(t, server.FrameQuery, server.EncodeSQL(`SELECT v FROM c`))...)
		serial.MustExec(sql)
		res, err := serial.Query(`SELECT v FROM c`)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Rows[0][0].Int()
	}
	handshakeWrites := writes.Load()
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	for i := range want {
		if ft, _, err := server.ReadFrame(br); err != nil || ft != server.FrameExecOK {
			t.Fatalf("update %d: response %v (%v), want ExecOK", i, ft, err)
		}
		ft, payload, err := server.ReadFrame(br)
		if err != nil || ft != server.FrameResult {
			t.Fatalf("read %d: response %v (%v), want Result", i, ft, err)
		}
		res, err := server.DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != want[i] {
			t.Fatalf("read %d returned v = %d, serial evaluation gives %d", i, got, want[i])
		}
	}
	if n := writes.Load() - handshakeWrites; n > 2*updates/10 {
		t.Errorf("%d frames pipelined in one write were answered in %d writes", 2*updates, n)
	}

	// Closing a prepared statement right behind its execution must not
	// overtake it.
	stmtSQL := server.EncodeReportRequest(server.ReportRequest{SQL: `SELECT mach_id FROM Activity WHERE value = 'idle'`})
	if _, err := nc.Write(frame(t, server.FramePrepare, stmtSQL)); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := server.ReadFrame(br)
	if err != nil || ft != server.FramePrepared {
		t.Fatalf("prepare: %v (%v)", ft, err)
	}
	prep, err := server.DecodePrepared(payload)
	if err != nil {
		t.Fatal(err)
	}
	id := server.EncodeStmtID(prep.ID)
	burst = append(frame(t, server.FrameExecPrepared, id), frame(t, server.FrameClosePrepared, id)...)
	burst = append(burst, frame(t, server.FrameExecPrepared, id)...)
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i, wantFT := range []server.FrameType{server.FrameReportData, server.FrameOK, server.FrameError} {
		if ft, _, err := server.ReadFrame(br); err != nil || ft != wantFT {
			t.Fatalf("execute, close, execute: response %d is %v (%v), want %v", i, ft, err, wantFT)
		}
	}
}

// TestOneGoroutinePerConnection: N connections cost the server N goroutines
// beside its accept loop — no reader/writer pair, no scheduler workers — and
// a connection answers a complete request even while the next one is only
// half arrived.
func TestOneGoroutinePerConnection(t *testing.T) {
	db := trac.Open()
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	db.MustExec(`INSERT INTO T VALUES (1)`)
	_, addr := startServer(t, db, server.Config{Sched: server.SchedConfig{Workers: 4}})
	const conns = 8
	for i := 0; i < conns; i++ {
		c, err := tracclient.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Query(`SELECT a FROM T`); err != nil { // handshake done, serving loop entered
			t.Fatal(err)
		}
	}
	// Count the goroutines with a frame of the server package on their
	// stack: the accept loop and one per connection.
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	serving := 0
	for _, g := range strings.Split(string(stacks), "\n\n") {
		if strings.Contains(g, "trac/internal/server.(") {
			serving++
		}
	}
	if serving != 1+conns {
		t.Errorf("%d goroutines in the server package for %d idle connections, want %d:\n%s", serving, conns, 1+conns, stacks)
	}

	nc := dialRaw(t, addr)
	query := frame(t, server.FrameQuery, server.EncodeSQL(`SELECT a FROM T`))
	half := len(query) / 2
	if _, err := nc.Write(append(append([]byte{}, query...), query[:half]...)); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := server.ReadFrame(nc); err != nil || ft != server.FrameResult {
		t.Fatalf("first response with the second request half sent: %v (%v)", ft, err)
	}
	if _, err := nc.Write(query[half:]); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := server.ReadFrame(nc); err != nil || ft != server.FrameResult {
		t.Fatalf("second response: %v (%v)", ft, err)
	}
}

// TestOverloadSheds holds the lone execution slot of a deliberately tiny
// admission layer: every client request must then come back as ErrBusy at
// its deadline, the scheduler must account for each one, and once the slot
// is free the same clients must be served.
func TestOverloadSheds(t *testing.T) {
	db := trac.Open()
	db.MustExec(`CREATE TABLE T (a BIGINT)`)
	for i := 0; i < 40; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO T VALUES (%d)`, i))
	}
	srv, addr := startServer(t, db, server.Config{
		Sched: server.SchedConfig{Workers: 1, QueueDepth: 1, AdmissionTimeout: 5 * time.Millisecond},
	})
	const clients = 16
	round := func() (ok, shed, other int64) {
		var nOK, nShed, nOther atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := tracclient.Dial(addr)
				if err != nil {
					nOther.Add(1)
					return
				}
				defer c.Close()
				if err := c.Ping(); err != nil { // control frames answer without a slot
					nOther.Add(1)
				}
				_, err = c.Query(`SELECT COUNT(*) FROM T WHERE a >= 0`)
				switch {
				case err == nil:
					nOK.Add(1)
				case errors.Is(err, tracclient.ErrBusy):
					nShed.Add(1)
				default:
					nOther.Add(1)
				}
			}()
		}
		wg.Wait()
		return nOK.Load(), nShed.Load(), nOther.Load()
	}

	release := server.HoldSlot(t, srv.Scheduler())
	if ok, shed, other := round(); ok != 0 || shed != clients || other != 0 {
		t.Fatalf("slot held: %d ok, %d busy, %d other errors; want all %d busy", ok, shed, other, clients)
	}
	if st := srv.Stats().Sched; st.Shed() != clients {
		t.Fatalf("clients saw %d busy, scheduler counted %+v", clients, st)
	}
	release()
	// Sixteen clients on one slot and one queue place can still shed each
	// other; what must hold is that the server is serving again.
	if ok, _, other := round(); ok == 0 || other != 0 {
		t.Fatalf("slot free: %d ok, %d non-busy errors", ok, other)
	}
}

// TestGracefulShutdown proves drain semantics: a request admitted before
// Shutdown starts still runs and gets its response, later work is refused,
// the session's temp tables are reclaimed, and new connections are refused.
func TestGracefulShutdown(t *testing.T) {
	db := trac.Open()
	db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT)`)
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	if err := db.SetSourceColumn("Activity", "mach_id"); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO Activity VALUES ('m1', 'idle')`)
	db.MustExec(`INSERT INTO Heartbeat VALUES ('m1', '2006-03-15 14:20:05')`)

	srv, err := server.New(server.Config{
		DB:    db,
		Sched: server.SchedConfig{Workers: 1, AdmissionTimeout: time.Minute},
	})
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
	// The client's report queues behind the held slot, so it is admitted
	// but not yet running when the drain begins.
	release := server.HoldSlot(t, srv.Scheduler())
	reported := make(chan error, 1)
	go func() {
		rep, err := c.Report(`SELECT mach_id FROM Activity WHERE value = 'idle'`)
		if err == nil && rep.NormalTable == "" {
			err = errors.New("report did not materialize temp tables")
		}
		reported <- err
	}()
	server.WaitAdmitted(t, srv.Scheduler(), 2)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdown := make(chan error, 1)
	go func() { shutdown <- srv.Shutdown(ctx) }()
	// Once the drain has begun, new work is refused...
	server.WaitDraining(t, srv.Scheduler())
	// ...and Shutdown is waiting for what was admitted.
	select {
	case err := <-shutdown:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case err := <-reported:
		t.Fatalf("report answered (%v) before its slot was free", err)
	default:
	}
	release()
	if err := <-reported; err != nil {
		t.Fatalf("request admitted before the drain: %v", err)
	}
	if err := <-shutdown; err != nil {
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

// holdResetListener hands out connections whose first zero read deadline —
// the handshake's deferred reset — waits until a later deadline has been
// set: the interleaving in which the reset clears Shutdown's drain poke.
type holdResetListener struct {
	net.Listener
	reached chan struct{} // closed once a reset is waiting
}

func (l holdResetListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &holdResetConn{Conn: nc, reached: l.reached, poked: make(chan struct{})}, nil
}

type holdResetConn struct {
	net.Conn
	reached, poked chan struct{}
	holding        atomic.Bool
	pokeOnce       sync.Once
}

func (c *holdResetConn) SetReadDeadline(t time.Time) error {
	if t.IsZero() && c.holding.CompareAndSwap(false, true) {
		close(c.reached)
		<-c.poked
		return c.Conn.SetReadDeadline(t)
	}
	err := c.Conn.SetReadDeadline(t)
	if c.holding.Load() {
		c.pokeOnce.Do(func() { close(c.poked) })
	}
	return err
}

// TestShutdownDuringHandshake: a connection whose handshake ends just after
// Shutdown poked its read deadline has that poke cleared by the handshake's
// own reset. It must still notice the drain instead of blocking in a read
// until the drain bound expires.
func TestShutdownDuringHandshake(t *testing.T) {
	srv, err := server.New(server.Config{DB: trac.Open()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reached := make(chan struct{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(holdResetListener{l, reached}) }()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := server.WriteFrame(nc, server.FrameHello, server.EncodeHello(server.Hello{Version: server.ProtocolVersion})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("the handshake never reset its read deadline")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Shutdown took %v: the connection slept through the drain poke", d)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
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
