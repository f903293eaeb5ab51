package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"trac"
	tracclient "trac/client/trac"
	"trac/internal/core/report"
	"trac/internal/engine"
	"trac/internal/server"
	"trac/internal/shard"
	"trac/internal/types"
	"trac/internal/workload"
)

// The three workloads over the paper's §5.2 dataset (workload.Build's
// Activity/Routing/Heartbeat) share one driver; they differ in size, in the
// statements of a refresh and in the door the statements go through.

// gridSpec sizes one of them.
type gridSpec struct {
	rows, sources int
	stale         int  // highest-numbered sources that stopped reporting
	shards        int  // 0: one engine
	wire          bool // through server + client instead of embedded
	sealTail      int  // > 0: seal Activity, then append this many unsealed rows
	tempTables    bool // default report config (sys_temp_* materialised)
	perLeg        int  // refreshes per leg of a block
	countBlocks   int  // blocks the counted metrics cover
	ingestRows    int  // Activity rows appended per block
	refresh       func(g *gridDriver, id int, rng *rand.Rand) []gstmt
}

// poolSize is how many distinct refreshes a run cycles through.
const poolSize = 1024

func gridSpecFor(name string, tiny bool) gridSpec {
	var s gridSpec
	switch name {
	case "wire_point":
		s = gridSpec{rows: 200_000, sources: 20_000, wire: true, perLeg: 32, countBlocks: 64, ingestRows: 64, refresh: wirePointRefresh}
	case "scan_join":
		s = gridSpec{rows: 200_000, sources: 100, sealTail: 2000, perLeg: 3, countBlocks: 16, ingestRows: 320, refresh: scanJoinRefresh}
	case "wide_sharded":
		s = gridSpec{rows: 100_000, sources: 5000, stale: 25, shards: 4, tempTables: true, perLeg: 3, countBlocks: 16, ingestRows: 128, refresh: wideShardedRefresh}
	}
	if tiny {
		s.rows /= 20
		s.sources /= 10
		s.stale /= 5
		s.sealTail /= 20
	}
	return s
}

// stmtKind is the form of a statement; it fixes both the text and the truth
// the answer is checked against.
type stmtKind uint8

const (
	kPoint      stmtKind = iota // rows of one source
	kJoinIn                     // Q3 form: idle rows of the listed sources, through Routing
	kCountNotIn                 // Q2 form: idle rows of every source but the listed ones
	kGroupValue                 // rows per value
	kJoinNotIn                  // Q4 form: as kCountNotIn, through Routing
)

type gstmt struct {
	kind stmtKind
	sql  string
	srcs []int // 1-based source numbers named in the text
}

func inList(srcs []int) string {
	parts := make([]string, len(srcs))
	for i, s := range srcs {
		parts[i] = "'" + workload.SourceName(s) + "'"
	}
	return strings.Join(parts, ",")
}

func newStmt(kind stmtKind, srcs ...int) gstmt {
	st := gstmt{kind: kind, srcs: srcs}
	switch kind {
	case kPoint:
		st.sql = `SELECT value, event_time FROM Activity WHERE mach_id = '` + workload.SourceName(srcs[0]) + `'`
	case kJoinIn:
		// Q3 with the list on both relations, so that both sides are index
		// probes: the planner has no index nested-loop join, and Q3 as the
		// paper writes it scans all of Activity.
		st.sql = `SELECT COUNT(*) FROM Routing R, Activity A WHERE R.mach_id IN (` + inList(srcs) +
			`) AND A.mach_id IN (` + inList(srcs) + `) AND R.neighbor = A.mach_id AND A.value = 'idle'`
	case kCountNotIn:
		st.sql = `SELECT COUNT(*) FROM Activity A WHERE A.mach_id NOT IN (` + inList(srcs) + `) AND A.value = 'idle'`
	case kGroupValue:
		st.sql = `SELECT value, COUNT(*) FROM Activity GROUP BY value`
	case kJoinNotIn:
		st.sql = `SELECT COUNT(*) FROM Routing R, Activity A WHERE R.mach_id NOT IN (` + inList(srcs) +
			`) AND R.neighbor = A.mach_id AND A.value = 'idle'`
	}
	return st
}

// wirePointRefresh: 12 point reports and 4 selective joins. Each refresh
// names one or two sources from outside the 64-source hot set (alternating,
// so the share is the same for every seed); the rest come from the hot set,
// the joins from 16 fixed hot triples. Cold texts outnumber the 256-entry
// plan cache, hot ones fit, so its hit ratio settles near 0.9.
func wirePointRefresh(g *gridDriver, id int, rng *rand.Rand) []gstmt {
	cold := 1 + id%2
	out := make([]gstmt, 0, 16)
	for i := 0; i < 12; i++ {
		src := g.hot[rng.Intn(len(g.hot))]
		if i < cold {
			src = 1 + rng.Intn(g.spec.sources)
		}
		out = append(out, newStmt(kPoint, src))
	}
	for i := 0; i < 4; i++ {
		k := 3 * rng.Intn(len(g.hot)/4)
		out = append(out, newStmt(kJoinIn, g.hot[k], g.hot[k+1], g.hot[k+2]))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// pick returns n distinct reporting (non-stale) sources.
func (g *gridDriver) pick(rng *rand.Rand, n int) []int {
	live := g.spec.sources - g.spec.stale
	out := make([]int, 0, n)
next:
	for len(out) < n {
		src := 1 + rng.Intn(live)
		for _, s := range out {
			if s == src {
				continue next
			}
		}
		out = append(out, src)
	}
	return out
}

// scanJoinRefresh: the paper's non-selective shapes, which scan all of
// Activity: Q2, a GROUP BY, and Q4.
func scanJoinRefresh(g *gridDriver, _ int, rng *rand.Rand) []gstmt {
	return []gstmt{
		newStmt(kCountNotIn, g.pick(rng, 6)...),
		newStmt(kGroupValue),
		newStmt(kJoinNotIn, g.pick(rng, 6)...),
	}
}

// wideShardedRefresh: two reports for which nearly every source is relevant
// (Q2 and Q4; for Q4 the generator is not minimal) and one that the
// partition key prunes to a single shard.
func wideShardedRefresh(g *gridDriver, _ int, rng *rand.Rand) []gstmt {
	return []gstmt{
		newStmt(kCountNotIn, g.pick(rng, 6)...),
		newStmt(kJoinNotIn, g.pick(rng, 6)...),
		newStmt(kPoint, 1+rng.Intn(g.spec.sources)),
	}
}

// answer is what one statement returned.
type answer struct {
	rows [][]types.Value
	emb  *report.Report // embedded report, or
	wire *server.Report // report off the wire; both nil for a bare query
}

func (a *answer) eachSource(fn func(sid string)) {
	if a.emb != nil {
		for _, s := range a.emb.Normal {
			fn(s.Sid)
		}
		for _, s := range a.emb.Exceptional {
			fn(s.Sid)
		}
	}
	if a.wire != nil {
		for _, s := range a.wire.Normal {
			fn(s.Sid)
		}
		for _, s := range a.wire.Exceptional {
			fn(s.Sid)
		}
	}
}

// timing returns the report's public Timing fields.
func (a *answer) timing() report.Timing {
	if a.emb != nil {
		return a.emb.Timing
	}
	if a.wire != nil {
		return report.Timing{Generate: a.wire.TimingGenerate, UserQuery: a.wire.TimingUser,
			RecencyQuery: a.wire.TimingRecency, Stats: a.wire.TimingStats}
	}
	return report.Timing{}
}

// door is how statements reach the database: embedded calls or the wire.
type door interface {
	query(sql string) (answer, error)
	report(sql string) (answer, error)
	exec(sql string) (int, error)
	// open and done bracket one refresh of reports: an embedded refresh is
	// one session, closed at its end so its temp tables are dropped.
	open()
	done() error
}

type embeddedDoor struct {
	db   *trac.DB
	opts []trac.Option
	sess *trac.Session
}

func (e *embeddedDoor) query(sql string) (answer, error) {
	res, err := e.db.Query(sql)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: res.Rows}, nil
}

func (e *embeddedDoor) report(sql string) (answer, error) {
	rep, err := e.sess.RecencyReport(sql, e.opts...)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: rep.Result.Rows, emb: rep}, nil
}

func (e *embeddedDoor) exec(sql string) (int, error) { return e.db.Exec(sql) }
func (e *embeddedDoor) open()                        { e.sess = e.db.NewSession() }
func (e *embeddedDoor) done() error                  { return e.sess.Close() }

type wireDoor struct {
	c    *tracclient.Client
	opts []tracclient.ReportOption
}

func (w *wireDoor) query(sql string) (answer, error) {
	res, err := w.c.Query(sql)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: res.Rows}, nil
}

func (w *wireDoor) report(sql string) (answer, error) {
	rep, err := w.c.Report(sql, w.opts...)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: rep.Result.Rows, wire: rep}, nil
}

func (w *wireDoor) exec(sql string) (int, error) { return w.c.Exec(sql) }
func (w *wireDoor) open()                        {}
func (w *wireDoor) done() error                  { return nil }

// gridDriver is one set-up instance of a grid workload.
type gridDriver struct {
	spec gridSpec

	eng    *engine.DB    // nil when sharded
	router *shard.Router // nil when not
	db     *trac.DB
	door   door
	srv    *server.Server
	served chan error
	client *tracclient.Client

	// ref is the comparison door of a traced run: the same database
	// embedded for the wire workload, a one-engine build of the same data
	// for the sharded one.
	ref    *embeddedDoor
	refEng *engine.DB // the sharded workload's one-engine twin

	stage *stagedPipeline

	hot       []int
	pool      [][]gstmt
	ingestRng *rand.Rand
	base      time.Time // event time of the first ingested row

	// The truth: Activity as the benchmark knows it, counted from the
	// stored rows at set-up and kept current by ingest.
	rowsOf, idleOf       []int32
	totalRows, totalIdle int64

	runner
	seen    []uint32 // stamp per source, for set checks without clearing
	stamp   uint32
	sealMS  float64
	pingsUS []float64
}

func setupGrid(name string, o options) (driver, error) {
	spec := gridSpecFor(name, o.tiny)
	g := &gridDriver{spec: spec}
	wspec := workload.Spec{TotalRows: spec.rows, DataSources: spec.sources, Seed: o.seed, StaleSources: spec.stale}
	var err error
	if spec.shards > 0 {
		if g.router, err = workload.BuildSharded(wspec, spec.shards); err != nil {
			return nil, err
		}
		g.db = trac.WrapRouter(g.router)
	} else {
		if g.eng, err = workload.Build(wspec); err != nil {
			return nil, err
		}
		g.db = trac.WrapEngine(g.eng)
	}
	var opts []trac.Option
	if !spec.tempTables {
		opts = append(opts, trac.WithoutTempTables())
	}
	embedded := &embeddedDoor{db: g.db, opts: opts}
	g.door = embedded
	if spec.wire {
		if err := g.serve(); err != nil {
			return nil, err
		}
	}
	if o.trace {
		switch {
		case spec.wire:
			g.ref = embedded
		case spec.shards > 0:
			if g.refEng, err = workload.Build(wspec); err != nil {
				return nil, err
			}
			g.ref = &embeddedDoor{db: trac.WrapEngine(g.refEng), opts: opts}
		}
		g.stage = newStagedPipeline(g.eng, g.router, report.Config{SkipTempTables: !spec.tempTables})
		if g.srv != nil {
			g.stage.sched = g.srv.Scheduler()
		}
	}

	g.ingestRng = rand.New(rand.NewSource(o.seed ^ 0x5eed))
	g.base = time.Date(2006, 3, 15, 0, 0, 0, 0, time.UTC).Add(time.Duration(spec.rows/spec.sources) * time.Second)
	if spec.sealTail > 0 {
		act, err := g.eng.Catalog().Get("Activity")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		act.Seal()
		g.sealMS = ms(time.Since(t0))
		for _, sql := range g.ingestBatch(-1, spec.sealTail) {
			if _, err := g.door.exec(sql); err != nil {
				return nil, err
			}
		}
	}
	if err := g.countTruth(); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(o.seed))
	g.hot = rng.Perm(spec.sources)[:min(64, spec.sources)]
	for i := range g.hot {
		g.hot[i]++ // source numbers are 1-based
	}
	g.pool = make([][]gstmt, poolSize)
	for id := range g.pool {
		g.pool[id] = spec.refresh(g, id, rng)
	}
	g.seen = make([]uint32, spec.sources+1)
	return g, nil
}

// serve starts the server on loopback and dials the one connection.
func (g *gridDriver) serve() error {
	srv, err := server.New(server.Config{
		DB: g.db,
		// One closed-loop client never queues; the long admission
		// deadline only keeps a host stall from shedding a request.
		Sched: server.SchedConfig{AdmissionTimeout: 10 * time.Second},
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	g.srv, g.served = srv, make(chan error, 1)
	go func() { g.served <- srv.Serve(l) }()
	if g.client, err = tracclient.Dial(l.Addr().String()); err != nil {
		return err
	}
	g.door = &wireDoor{c: g.client, opts: []tracclient.ReportOption{tracclient.WithoutTempTables()}}
	return nil
}

func (g *gridDriver) close() error {
	var first error
	if g.client != nil {
		first = g.client.Close()
	}
	if g.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := g.srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		if err := <-g.served; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (g *gridDriver) perLeg() int         { return g.spec.perLeg }
func (g *gridDriver) countBlocks() int    { return g.spec.countBlocks }
func (g *gridDriver) flushPolicy() string { return "memory only" }

// engines lists the engines that hold Activity partitions.
func (g *gridDriver) engines() []*engine.DB {
	if g.router == nil {
		return []*engine.DB{g.eng}
	}
	out := make([]*engine.DB, g.router.N())
	for i := range out {
		out[i] = g.router.Shard(i)
	}
	return out
}

func sourceNumber(sid string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(sid, "Tao"))
	if err != nil {
		return 0
	}
	return n
}

// countTruth reads Activity row by row from storage, below the planner and
// the executor, so the counts the queries are checked against do not come
// from the code under test.
func (g *gridDriver) countTruth() error {
	g.rowsOf = make([]int32, g.spec.sources+1)
	g.idleOf = make([]int32, g.spec.sources+1)
	for _, eng := range g.engines() {
		act, err := eng.Catalog().Get("Activity")
		if err != nil {
			return err
		}
		snap := eng.Snapshot()
		for _, r := range act.Rows() {
			if snap.Visible(r) {
				g.noteRow(sourceNumber(r.Values[0].Str()), r.Values[1].Str() == "idle")
			}
		}
	}
	return nil
}

func (g *gridDriver) noteRow(src int, idle bool) {
	g.rowsOf[src]++
	g.totalRows++
	if idle {
		g.idleOf[src]++
		g.totalIdle++
	}
}

// ingestBatch makes the statements of one block's writes: per row an
// Activity insert for a reporting source and that source's heartbeat.
// Stale sources write nothing; that is what makes them stale.
func (g *gridDriver) ingestBatch(block, n int) []string {
	ts := types.NewTime(g.base.Add(time.Duration(block+1) * time.Second)).SQL()
	live := g.spec.sources - g.spec.stale
	out := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		src := 1 + g.ingestRng.Intn(live)
		value := "busy"
		if g.ingestRng.Intn(2) == 0 {
			value = "idle"
		}
		if g.rowsOf != nil {
			g.noteRow(src, value == "idle")
		}
		sid := "'" + workload.SourceName(src) + "'"
		out = append(out,
			`INSERT INTO Activity VALUES (`+sid+`, '`+value+`', `+ts+`)`,
			`UPDATE Heartbeat SET recency = `+ts+` WHERE sid = `+sid)
	}
	return out
}

func (g *gridDriver) ingest(block int) (int, time.Duration, error) {
	stmts := g.ingestBatch(block, g.spec.ingestRows)
	rows := 0
	t0 := time.Now()
	for _, sql := range stmts {
		n, err := g.door.exec(sql)
		if err != nil {
			return rows, time.Since(t0), err
		}
		rows += n
	}
	d := time.Since(t0)
	if g.refEng != nil {
		// The twin takes the same writes, untimed, to stay identical.
		for _, sql := range stmts {
			if _, err := g.refEng.Exec(sql); err != nil {
				return rows, d, err
			}
		}
	}
	if want := len(stmts); rows != want {
		return rows, d, fmt.Errorf("ingest: %d rows affected, want %d", rows, want)
	}
	return rows, d, nil
}

// runner issues one refresh through a door and keeps what came back.
type runner struct {
	lastSt []gstmt
	last   []answer
}

func (r *runner) run(d door, stmts []gstmt, reports bool) error {
	r.lastSt, r.last = stmts, r.last[:0]
	if !reports {
		for _, st := range stmts {
			a, err := d.query(st.sql)
			if err != nil {
				return err
			}
			r.last = append(r.last, a)
		}
		return nil
	}
	d.open()
	for _, st := range stmts {
		a, err := d.report(st.sql)
		if err != nil {
			_ = d.done() // the statement's error is the one to report
			return err
		}
		r.last = append(r.last, a)
	}
	return d.done()
}

func (g *gridDriver) refresh(id int, reports bool) error {
	return g.run(g.door, g.pool[id%poolSize], reports)
}

func (g *gridDriver) hasReference() bool { return g.ref != nil }

func (g *gridDriver) reference(id int) error { return g.run(g.ref, g.pool[id%poolSize], true) }

// probe times a few pings on the wire workload's connection.
func (g *gridDriver) probe() error {
	if g.client == nil {
		return nil
	}
	for i := 0; i < 8; i++ {
		t0 := time.Now()
		if err := g.client.Ping(); err != nil {
			return err
		}
		g.pingsUS = append(g.pingsUS, us(time.Since(t0)))
	}
	return nil
}

func (g *gridDriver) layerStats(m map[string]float64, reportMS, referenceMS float64) {
	m["client.ping_p50_us"] = median(g.pingsUS)
	m["storage.seal_ms"] = g.sealMS
	if g.srv != nil {
		// The reference is the same database embedded.
		m["server.sched_shed"] = float64(g.srv.Scheduler().Stats().Shed())
		m["server.wire_overhead_ms"] = reportMS - referenceMS
	}
	if g.refEng != nil {
		// The reference is a one-engine build of the same data.
		m["shard.report_ms"] = reportMS
		m["shard.overhead_ratio"] = ratio(reportMS, referenceMS)
	}
	g.stage.layerStats(m)
}

func (g *gridDriver) staged(id int, tr *tracer) error {
	return g.stage.refresh(tr, g.pool[id%poolSize])
}

func countOf(rows [][]types.Value) int64 {
	if len(rows) != 1 || len(rows[0]) != 1 {
		return -1
	}
	return rows[0][0].Int()
}

// check compares the last refresh's answers with the truth: row counts for
// every statement and, for reports, that no relevant source is missing.
func (g *gridDriver) check(acc *truth) error {
	for i, st := range g.lastSt {
		a := &g.last[i]
		listedIdle := int64(0)
		for _, s := range st.srcs {
			listedIdle += int64(g.idleOf[s])
		}
		switch st.kind {
		case kPoint:
			if got, want := len(a.rows), int(g.rowsOf[st.srcs[0]]); got != want {
				return fmt.Errorf("%s: %d rows, want %d", st.sql, got, want)
			}
		case kJoinIn:
			if got := countOf(a.rows); got != listedIdle {
				return fmt.Errorf("%s: count %d, want %d", st.sql, got, listedIdle)
			}
		case kCountNotIn, kJoinNotIn:
			if got, want := countOf(a.rows), g.totalIdle-listedIdle; got != want {
				return fmt.Errorf("%s: count %d, want %d", st.sql, got, want)
			}
		case kGroupValue:
			for _, r := range a.rows {
				want := g.totalIdle
				if r[0].Str() == "busy" {
					want = g.totalRows - g.totalIdle
				}
				if r[1].Int() != want {
					return fmt.Errorf("%s: %s count %d, want %d", st.sql, r[0].Str(), r[1].Int(), want)
				}
			}
			if len(a.rows) != 2 {
				return fmt.Errorf("%s: %d groups, want 2", st.sql, len(a.rows))
			}
		}
		if a.emb == nil && a.wire == nil {
			continue
		}
		if err := g.checkSources(st, a, acc); err != nil {
			return err
		}
	}
	return nil
}

// checkSources applies Definitions 1 and 2 of the paper to the statement's
// form. Routing maps every source to itself, so a join through it reaches
// the sources its predicate on R.mach_id admits: the listed sources are
// relevant for the IN forms, every other source for the NOT IN forms, and
// every source for a GROUP BY over all of Activity.
func (g *gridDriver) checkSources(st gstmt, a *answer, acc *truth) error {
	g.stamp++
	reported, dup := 0, false
	a.eachSource(func(sid string) {
		n := sourceNumber(sid)
		if n < 1 || n > g.spec.sources || g.seen[n] == g.stamp {
			dup = true
			return
		}
		g.seen[n] = g.stamp
		reported++
	})
	if dup {
		return fmt.Errorf("%s: unknown or repeated source in the report", st.sql)
	}
	relevant, listedSeen := 0, 0
	for _, s := range st.srcs {
		if g.seen[s] == g.stamp {
			listedSeen++
		}
	}
	switch st.kind {
	case kPoint, kJoinIn:
		relevant = len(st.srcs)
		if listedSeen != relevant {
			return fmt.Errorf("%s: %d of %d relevant sources reported", st.sql, listedSeen, relevant)
		}
	case kCountNotIn, kJoinNotIn:
		relevant = g.spec.sources - len(st.srcs)
		if reported-listedSeen != relevant {
			return fmt.Errorf("%s: %d of %d relevant sources reported", st.sql, reported-listedSeen, relevant)
		}
	case kGroupValue:
		relevant = g.spec.sources
		if reported != relevant {
			return fmt.Errorf("%s: %d of %d relevant sources reported", st.sql, reported, relevant)
		}
	}
	acc.note(reported, relevant, a.timing())
	return nil
}

func (g *gridDriver) finish() error { return nil }
