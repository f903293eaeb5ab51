// Serving-layer benchmarks: end-to-end wire-protocol latency and
// throughput through trac-server's admission-controlled scheduler, measured
// at client counts {1, 8, 64, 256} for three workloads — point queries,
// prepared recency reports (and the same reports unprepared, to price the
// plan-cache ride), and a mixed read/ingest stream — plus an overload
// scenario that saturates a deliberately tiny admission queue and records
// how p99 stays bounded while the shed rate rises. The same scenarios back
// BenchmarkServe* and the `tracbench -servebench` run that emits
// BENCH_serve.json.
package benchharness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"trac"
	tracclient "trac/client/trac"
	"trac/internal/server"
	"trac/internal/workload"
)

// ServeBenchResult is one (scenario, client count) measurement.
type ServeBenchResult struct {
	Scenario   string  `json:"scenario"`
	Clients    int     `json:"clients"`
	Requests   int     `json:"requests"` // attempted across all clients
	OK         int     `json:"ok"`
	Shed       int     `json:"shed"` // client-observed Busy responses
	Errors     int     `json:"errors"`
	P50Ms      float64 `json:"p50_ms"` // successful requests only
	P99Ms      float64 `json:"p99_ms"`
	QPS        float64 `json:"qps"` // successful requests / wall time
	GoMaxProcs int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"` // scheduler pool size
	Degenerate bool    `json:"degenerate,omitempty"`
	Label      string  `json:"label,omitempty"`
}

// ServeOverloadResult is the overload scenario: offered load far beyond a
// tiny admission layer's capacity. Bounded p99 with an honest shed count is
// the pass criterion — under overload the queue refuses, it does not grow.
type ServeOverloadResult struct {
	Rows          int     `json:"rows"` // fixed-size overload dataset, independent of -total
	Clients       int     `json:"clients"`
	Requests      int     `json:"requests"`
	OK            int     `json:"ok"`
	Shed          int     `json:"shed"`
	Errors        int     `json:"errors"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	ShedRate      float64 `json:"shed_rate"` // shed / requests
	QueueDepth    int     `json:"queue_depth"`
	Workers       int     `json:"workers"`
	AdmitTimeout  string  `json:"admit_timeout"`
	SchedShed     uint64  `json:"sched_shed"`     // server-side refusals
	SchedExecuted uint64  `json:"sched_executed"` // server-side completions
	GoMaxProcs    int     `json:"gomaxprocs"`
	Degenerate    bool    `json:"degenerate,omitempty"`
	Label         string  `json:"label,omitempty"`
}

// PreparedWinResult isolates the per-query cost that preparing removes.
// End-to-end wall times dilute the win with wire and syscall overhead shared
// by both paths, so alongside the wall ratio it records the server-reported
// per-request generation time (Report.Timing.Generate): for a prepared
// execute that is a version-checked plan-cache lookup, for an unprepared
// report it is a full parse + classification + recency-query generation.
type PreparedWinResult struct {
	Requests           int     `json:"requests"`
	PreparedWallP50Ms  float64 `json:"prepared_wall_p50_ms"`
	UnpreparedP50Ms    float64 `json:"unprepared_wall_p50_ms"`
	PreparedGenP50Us   float64 `json:"prepared_gen_p50_us"`
	UnpreparedGenP50Us float64 `json:"unprepared_gen_p50_us"`
	WallSpeedup        float64 `json:"wall_speedup"`
	GenSpeedup         float64 `json:"gen_speedup"`
}

// ServeBenchReport is the top-level BENCH_serve.json document.
type ServeBenchReport struct {
	TotalRows    int                  `json:"total_rows"`
	Sources      int                  `json:"data_sources"`
	RequestsPer  int                  `json:"requests_per_cell"`
	GoMaxProcs   int                  `json:"gomaxprocs"`
	ClientCounts []int                `json:"client_counts"`
	Results      []ServeBenchResult   `json:"results"`
	Overload     *ServeOverloadResult `json:"overload"`
	// PreparedSpeedup is unprepared-report p50 / prepared-report p50 at
	// each client count (>1 means preparing wins).
	PreparedSpeedup map[string]float64 `json:"prepared_speedup"`
	PreparedWin     *PreparedWinResult `json:"prepared_win"`
}

// serveScenario is one request loop a client runs against the server.
type serveScenario struct {
	Name string
	// Setup runs once per client before the timed loop (e.g. Prepare).
	Setup func(c *tracclient.Client) (func() error, error)
}

// serveScenarios builds the measured set over the workload dataset.
func serveScenarios(sources int) []serveScenario {
	probe := workload.SourceName(1 + sources/2)
	pointSQL := fmt.Sprintf(`SELECT value, event_time FROM Activity WHERE mach_id = '%s'`, probe)
	reportSQL := fmt.Sprintf(`SELECT value FROM Activity WHERE mach_id = '%s'`, probe)
	return []serveScenario{
		{
			Name: "point-query",
			Setup: func(c *tracclient.Client) (func() error, error) {
				return func() error {
					_, err := c.Query(pointSQL)
					return err
				}, nil
			},
		},
		{
			Name: "prepared-report",
			Setup: func(c *tracclient.Client) (func() error, error) {
				stmt, err := c.Prepare(reportSQL, tracclient.WithoutTempTables())
				if err != nil {
					return nil, err
				}
				return func() error {
					_, err := stmt.Execute()
					return err
				}, nil
			},
		},
		{
			// The ablation twin of prepared-report: same report, plan cache
			// disabled, so every request re-parses and regenerates.
			Name: "unprepared-report",
			Setup: func(c *tracclient.Client) (func() error, error) {
				return func() error {
					_, err := c.Report(reportSQL,
						tracclient.WithoutTempTables(), tracclient.WithoutPlanCache())
					return err
				}, nil
			},
		},
		{
			// 1 ingest per 4 reads, the monitoring-store steady state.
			Name: "mixed-read-ingest",
			Setup: func(c *tracclient.Client) (func() error, error) {
				n := 0
				insertSQL := fmt.Sprintf(
					`INSERT INTO Activity VALUES ('%s', 'busy', '2006-03-15 00:00:00')`, probe)
				return func() error {
					n++
					if n%5 == 0 {
						_, err := c.Exec(insertSQL)
						return err
					}
					_, err := c.Query(pointSQL)
					return err
				}, nil
			},
		},
	}
}

// launchServeBench builds the workload database and serves it on loopback.
func launchServeBench(totalRows, sources int, sched server.SchedConfig) (*server.Server, string, func(), error) {
	eng, err := workload.Build(workload.Spec{TotalRows: totalRows, DataSources: sources})
	if err != nil {
		return nil, "", nil, err
	}
	srv, err := server.New(server.Config{
		DB:    trac.WrapEngine(eng),
		Sched: sched,
	})
	if err != nil {
		return nil, "", nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveDone
	}
	return srv, l.Addr().String(), stop, nil
}

// cellOutcome aggregates one measurement cell.
type cellOutcome struct {
	ok, shed, errs int
	latencies      []time.Duration // successful requests only
	wall           time.Duration
}

// runServeCell drives `clients` concurrent connections through `requests`
// total scenario iterations and aggregates latencies.
func runServeCell(addr string, sc serveScenario, clients, requests int) (*cellOutcome, error) {
	conns := make([]*tracclient.Client, clients)
	ops := make([]func() error, clients)
	for i := range conns {
		c, err := tracclient.Dial(addr, tracclient.WithDialTimeout(30*time.Second))
		if err != nil {
			return nil, fmt.Errorf("dial client %d: %w", i, err)
		}
		defer c.Close()
		op, err := sc.Setup(c)
		if err != nil {
			return nil, fmt.Errorf("setup client %d: %w", i, err)
		}
		conns[i], ops[i] = c, op
		// Warm up once untimed (hydrates caches, JITs nothing: Go).
		if err := op(); err != nil && !errors.Is(err, tracclient.ErrBusy) {
			return nil, fmt.Errorf("warmup client %d: %w", i, err)
		}
	}
	perClient := requests / clients
	if perClient < 1 {
		perClient = 1
	}
	type clientOut struct {
		ok, shed, errs int
		lats           []time.Duration
	}
	outs := make([]clientOut, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			o.lats = make([]time.Duration, 0, perClient)
			for n := 0; n < perClient; n++ {
				t0 := time.Now()
				err := ops[i]()
				d := time.Since(t0)
				switch {
				case err == nil:
					o.ok++
					o.lats = append(o.lats, d)
				case errors.Is(err, tracclient.ErrBusy):
					o.shed++
				default:
					o.errs++
				}
			}
		}(i)
	}
	wg.Wait()
	out := &cellOutcome{wall: time.Since(start)}
	for i := range outs {
		out.ok += outs[i].ok
		out.shed += outs[i].shed
		out.errs += outs[i].errs
		out.latencies = append(out.latencies, outs[i].lats...)
	}
	return out, nil
}

// measurePreparedWin runs the prepared and unprepared report paths back to
// back on one connection and splits out the per-request generation component
// each response carries alongside the end-to-end wall time.
func measurePreparedWin(addr, reportSQL string, requests int) (*PreparedWinResult, error) {
	c, err := tracclient.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	stmt, err := c.Prepare(reportSQL, tracclient.WithoutTempTables())
	if err != nil {
		return nil, err
	}
	if _, err := stmt.Execute(); err != nil { // seed the plan cache
		return nil, err
	}
	var prepWall, prepGen, unWall, unGen []time.Duration
	for i := 0; i < requests; i++ {
		t0 := time.Now()
		rep, err := stmt.Execute()
		if err != nil {
			return nil, err
		}
		prepWall = append(prepWall, time.Since(t0))
		prepGen = append(prepGen, rep.TimingGenerate)
	}
	for i := 0; i < requests; i++ {
		t0 := time.Now()
		rep, err := c.Report(reportSQL, tracclient.WithoutTempTables(), tracclient.WithoutPlanCache())
		if err != nil {
			return nil, err
		}
		unWall = append(unWall, time.Since(t0))
		unGen = append(unGen, rep.TimingGenerate)
	}
	w := &PreparedWinResult{
		Requests:           requests,
		PreparedWallP50Ms:  percentileMs(prepWall, 0.50),
		UnpreparedP50Ms:    percentileMs(unWall, 0.50),
		PreparedGenP50Us:   percentileMs(prepGen, 0.50) * 1000,
		UnpreparedGenP50Us: percentileMs(unGen, 0.50) * 1000,
	}
	if w.PreparedWallP50Ms > 0 {
		w.WallSpeedup = w.UnpreparedP50Ms / w.PreparedWallP50Ms
	}
	if w.PreparedGenP50Us > 0 {
		w.GenSpeedup = w.UnpreparedGenP50Us / w.PreparedGenP50Us
	}
	return w, nil
}

// percentileMs returns the p-th percentile of ds in milliseconds.
func percentileMs(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return ms(sorted[idx])
}

// RunServeBench measures every scenario at every client count, then the
// overload scenario, and assembles the report.
func RunServeBench(totalRows, sources, requestsPerCell int, clientCounts []int, progress func(string)) (*ServeBenchReport, error) {
	if totalRows == 0 {
		totalRows = 20_000
	}
	if sources == 0 {
		sources = 200
	}
	if requestsPerCell == 0 {
		requestsPerCell = 1024
	}
	if len(clientCounts) == 0 {
		clientCounts = []int{1, 8, 64, 256}
	}
	logf := func(format string, args ...any) {
		if progress != nil {
			progress(fmt.Sprintf(format, args...))
		}
	}
	rep := &ServeBenchReport{
		TotalRows: totalRows, Sources: sources, RequestsPer: requestsPerCell,
		GoMaxProcs: runtime.GOMAXPROCS(0), ClientCounts: clientCounts,
		PreparedSpeedup: map[string]float64{},
	}

	// Throughput/latency cells: default admission sizing.
	srv, addr, stop, err := launchServeBench(totalRows, sources, server.SchedConfig{})
	if err != nil {
		return nil, err
	}
	defer stop()
	p50ByCell := map[string]float64{}
	for _, sc := range serveScenarios(sources) {
		for _, clients := range clientCounts {
			out, err := runServeCell(addr, sc, clients, requestsPerCell)
			if err != nil {
				return nil, fmt.Errorf("%s @ %d clients: %w", sc.Name, clients, err)
			}
			if out.errs > 0 {
				return nil, fmt.Errorf("%s @ %d clients: %d hard errors", sc.Name, clients, out.errs)
			}
			degenerate, label := false, ""
			if clients > 1 {
				degenerate, label = DegenerateParallel(clients)
			}
			r := ServeBenchResult{
				Scenario: sc.Name, Clients: clients,
				Requests: out.ok + out.shed, OK: out.ok, Shed: out.shed,
				P50Ms:      percentileMs(out.latencies, 0.50),
				P99Ms:      percentileMs(out.latencies, 0.99),
				QPS:        float64(out.ok) / out.wall.Seconds(),
				GoMaxProcs: rep.GoMaxProcs, Workers: srv.Scheduler().Workers(),
				Degenerate: degenerate, Label: label,
			}
			rep.Results = append(rep.Results, r)
			p50ByCell[fmt.Sprintf("%s@%d", sc.Name, clients)] = r.P50Ms
			logf("%-18s %4d clients: p50 %.3fms p99 %.3fms %.0f qps (%d shed)",
				sc.Name, clients, r.P50Ms, r.P99Ms, r.QPS, out.shed)
		}
	}
	for _, clients := range clientCounts {
		unprep := p50ByCell[fmt.Sprintf("unprepared-report@%d", clients)]
		prep := p50ByCell[fmt.Sprintf("prepared-report@%d", clients)]
		if prep > 0 {
			rep.PreparedSpeedup[fmt.Sprintf("clients_%d", clients)] = unprep / prep
		}
	}
	probe := workload.SourceName(1 + sources/2)
	reportSQL := fmt.Sprintf(`SELECT value FROM Activity WHERE mach_id = '%s'`, probe)
	win, err := measurePreparedWin(addr, reportSQL, requestsPerCell)
	if err != nil {
		return nil, fmt.Errorf("prepared-win: %w", err)
	}
	rep.PreparedWin = win
	logf("prepared-win: gen %.1fµs unprepared vs %.1fµs prepared (%.1fx); wall %.3fms vs %.3fms (%.2fx)",
		win.UnpreparedGenP50Us, win.PreparedGenP50Us, win.GenSpeedup,
		win.UnpreparedP50Ms, win.PreparedWallP50Ms, win.WallSpeedup)

	// Overload: one worker, one queue slot, a 2ms admission deadline — an
	// admission layer that cannot possibly carry 64 eager clients whose
	// request runs for far longer than the admission deadline. p99 of the
	// requests that DO run stays bounded because the queue never grows;
	// everything else comes back as a fast Busy.
	//
	// The cell runs against its own fixed-size dataset (not totalRows) with a
	// quadratic self-join whose ~20ms service time is deliberate on two
	// counts: it keeps the overload behaviour identical whatever -total the
	// sweep ran at, and it exceeds the Go runtime's ~10ms async-preemption
	// quantum. The latter matters on a single-core box: with sub-quantum
	// service times the scheduler alternates producer and worker perfectly —
	// every submit finds the queue already drained — and overload is
	// unreachable no matter how many clients pile on. Only once the worker
	// holds the CPU past the quantum do concurrent submits stack up behind
	// the full queue and expire against the admission deadline.
	const overRows, overSources = 3000, 100
	overCfg := server.SchedConfig{Workers: 1, QueueDepth: 1, AdmissionTimeout: 2 * time.Millisecond}
	osrv, oaddr, ostop, err := launchServeBench(overRows, overSources, overCfg)
	if err != nil {
		return nil, err
	}
	defer ostop()
	overClients := 64
	sc := serveScenario{
		Name: "overload-join",
		Setup: func(c *tracclient.Client) (func() error, error) {
			return func() error {
				_, err := c.Query(`SELECT COUNT(*) FROM Activity a, Activity b WHERE a.mach_id = b.mach_id`)
				return err
			}, nil
		},
	}
	out, err := runServeCell(oaddr, sc, overClients, 4*requestsPerCell)
	if err != nil {
		return nil, fmt.Errorf("overload: %w", err)
	}
	st := osrv.Stats().Sched
	degenerate, label := DegenerateParallel(overClients)
	total := out.ok + out.shed + out.errs
	rep.Overload = &ServeOverloadResult{
		Rows:    overRows,
		Clients: overClients, Requests: total, OK: out.ok, Shed: out.shed, Errors: out.errs,
		P50Ms: percentileMs(out.latencies, 0.50), P99Ms: percentileMs(out.latencies, 0.99),
		ShedRate:   float64(out.shed) / float64(total),
		QueueDepth: overCfg.QueueDepth, Workers: overCfg.Workers,
		AdmitTimeout: overCfg.AdmissionTimeout.String(),
		SchedShed:    st.Shed(), SchedExecuted: st.Executed,
		GoMaxProcs: rep.GoMaxProcs, Degenerate: degenerate, Label: label,
	}
	logf("overload           %4d clients: p50 %.3fms p99 %.3fms shed %d/%d (%.0f%%)",
		overClients, rep.Overload.P50Ms, rep.Overload.P99Ms, out.shed, total,
		100*rep.Overload.ShedRate)
	return rep, nil
}

// MarshalServeBench renders the BENCH_serve.json document.
func MarshalServeBench(r *ServeBenchReport) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
