// Command bench is this repository's benchmark: four dashboard-refresh
// workloads, nine end-to-end metrics measured untraced, and one per-layer
// metric set from a separate traced run. README.md in this directory is the
// catalogue; BENCHMARK.json at the repository root is the contract.
//
//	bash bench/run.sh --workload wire_point --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -selfcheck -sets 2 -runs 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"time"

	"trac/internal/core/report"
)

// pinnedProcs is the reference host's core count; every run uses it, so
// parallel plans are the same everywhere.
const pinnedProcs = 2

// setupRepeats is how many times a run sets the workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupRepeats = 5

// warmBlocks run, unrecorded, at the end of every set-up.
const warmBlocks = 2

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for traces and database directories
	tiny     bool   // tests only: datasets small enough for a smoke run
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"report_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"report_over_query_ratio", "ratio"},
	{"allocs_per_report", "count"},
	{"alloc_bytes_per_report", "bytes"},
	{"relevant_precision", "ratio"},
	{"peak_rss_mb", "MB"},
	{"ingest_rows_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"client.ping_p50_us", "us"},
	{"client.report_p90_ms", "ms"},
	{"client.report_p99_ms", "ms"},
	{"client.refreshes_per_s", "1/s"},
	{"client.samples", "count"},
	{"server.sched_submit_us", "us"},
	{"server.sched_shed", "count"},
	{"server.codec_encode_report_us", "us"},
	{"server.codec_decode_report_us", "us"},
	{"server.codec_report_bytes", "bytes"},
	{"server.wire_overhead_ms", "ms"},
	{"sqlparser.parse_us", "us"},
	{"sqlparser.parse_allocs", "count"},
	{"sqlparser.self_ms", "ms"},
	{"engine.normalize_us", "us"},
	{"engine.plancache_get_us", "us"},
	{"engine.plancache_hit_ratio", "ratio"},
	{"engine.self_ms", "ms"},
	{"engine.wal_bytes_per_row", "bytes"},
	{"engine.checkpoint_ms", "ms"},
	{"engine.checkpoint_count", "count"},
	{"engine.reopen_ms", "ms"},
	{"engine.disk_bytes_per_row", "bytes"},
	{"core.recgen_generate_us", "us"},
	{"core.recgen_minimal_share", "ratio"},
	{"core.recgen.self_ms", "ms"},
	{"core.report_generate_ms", "ms"},
	{"core.report_userquery_ms", "ms"},
	{"core.report_recencyquery_ms", "ms"},
	{"core.report_stats_ms", "ms"},
	{"core.report_summarize_ms", "ms"},
	{"core.report_materialize_ms", "ms"},
	{"core.report_sources_reported", "count"},
	{"core.report_sources_relevant", "count"},
	{"core.report.self_ms", "ms"},
	{"planner.plan_user_us", "us"},
	{"planner.plan_recency_us", "us"},
	{"planner.self_ms", "ms"},
	{"exec.drain_ms", "ms"},
	{"exec.rows_out", "count"},
	{"exec.vectorized_share", "ratio"},
	{"exec.parallel_degree", "count"},
	{"exec.self_ms", "ms"},
	{"storage.segments_pruned", "count"},
	{"storage.segments_scanned", "count"},
	{"storage.segments_stat_answered", "count"},
	{"storage.tail_rows", "count"},
	{"storage.seal_ms", "ms"},
	{"shard.cut_us", "us"},
	{"shard.shards_touched_per_stmt", "count"},
	{"shard.report_ms", "ms"},
	{"shard.overhead_ratio", "ratio"},
	{"shard.self_ms", "ms"},
	{"sniffer.pollall_ms", "ms"},
	{"sniffer.rows_applied", "count"},
	{"sniffer.retries", "count"},
	{"sniffer.lag_rows", "count"},
	{"runtime.gc_cycles_per_kreport", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.host_slowdown", "ratio"},
	{"trace.coverage_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

var workloadNames = []string{"wire_point", "scan_join", "wide_sharded", "ingest_durable"}

func setupWorkload(o options) (driver, error) {
	switch o.workload {
	case "wire_point", "scan_join", "wide_sharded":
		return setupGrid(o.workload, o)
	case "ingest_durable":
		return setupIngest(o)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
}

// driver is one set-up instance of a workload.
type driver interface {
	// perLeg is the number of refreshes in each leg of a block.
	perLeg() int
	// countBlocks is how many blocks, from the start of the measured
	// phase, the counted metrics cover.
	countBlocks() int
	// flushPolicy says when the workload's writes reach the disk.
	flushPolicy() string
	// ingest applies one block's writes through the workload's front door
	// and returns the rows applied and the time that took.
	ingest(block int) (rows int, d time.Duration, err error)
	// refresh issues refresh id's statements back to back, as recency
	// reports or as bare queries, and keeps what came back.
	refresh(id int, reports bool) error
	// check compares what the last refresh returned with the truth.
	check(acc *truth) error
	// staged replays refresh id's reports through the staged pipeline.
	staged(id int, tr *tracer) error
	// reference runs refresh id's reports through the door the workload
	// is compared with, when it has one.
	hasReference() bool
	reference(id int) error
	// probe takes the per-block measurements of a traced run.
	probe() error
	// layerStats adds the driver's counters to the per-layer metrics,
	// given a refresh's time through its own door and through the
	// reference door.
	layerStats(m map[string]float64, reportMS, referenceMS float64)
	// finish makes the end-of-run correctness checks.
	finish() error
	close() error
}

// truth accumulates, over report statements, the sources reported and the
// sources that are truly relevant, and in a traced run the reports' public
// Timing fields.
type truth struct {
	reported, relevant, statements int
	keepTiming                     bool
	generateMS, userMS, recencyMS  []float64
	statsMS                        []float64
}

func (t *truth) note(reported, relevant int, tm report.Timing) {
	t.reported += reported
	t.relevant += relevant
	t.statements++
	if t.keepTiming {
		t.generateMS = append(t.generateMS, ms(tm.Generate))
		t.userMS = append(t.userMS, ms(tm.UserQuery))
		t.recencyMS = append(t.recencyMS, ms(tm.RecencyQuery))
		t.statsMS = append(t.statsMS, ms(tm.Stats))
	}
}

// legs holds what the blocks of a run measured.
type legs struct {
	reportMS, queryMS []float64             // per refresh, pooled over blocks
	refMS             []float64             // traced runs: the reference door's refreshes
	ratios            []float64             // per block: mean report refresh over mean query refresh
	ingestRate        []float64             // per block: rows per second
	calibMS           [numKernels][]float64 // calibration kernels, sampled before the report and query legs
	mallocs, bytes    uint64                // process-wide, over report legs
	reports           int                   // report refreshes those cover
	reportWall        time.Duration
	attempted, failed int
	firstErr          error
}

func (l *legs) op(err error) bool {
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
	return err == nil
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// leg times n refreshes one after another; each is checked, untimed, before
// the next. It returns the times of those that succeeded.
func (l *legs) leg(n int, acc *truth, check func(*truth) error, one func(i int) error) []float64 {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := one(i)
		d := time.Since(t0)
		if err == nil && check != nil {
			err = check(acc)
		}
		if l.op(err) {
			times = append(times, ms(d))
		}
	}
	return times
}

// block runs one block: the writes, then the same refreshes as reports and
// as bare queries; a traced run also stages them and runs the reference.
func (l *legs) block(d driver, block int, tr *tracer, acc *truth) {
	n := d.perLeg()
	base := block * n
	rows, dur, err := d.ingest(block)
	if l.op(err) && dur > 0 {
		l.ingestRate = append(l.ingestRate, float64(rows)/dur.Seconds())
	}
	if tr != nil {
		l.op(d.probe())
	}

	l.calibrate()
	m0 := readMem()
	t0 := time.Now()
	rep := l.leg(n, acc, d.check, func(i int) error { return d.refresh(base+i, true) })
	l.reportWall += time.Since(t0)
	m1 := readMem()
	l.mallocs += m1.Mallocs - m0.Mallocs
	l.bytes += m1.TotalAlloc - m0.TotalAlloc
	l.reports += n
	l.reportMS = append(l.reportMS, rep...)

	if tr != nil {
		l.leg(n, nil, nil, func(i int) error { return d.staged(base+i, tr) })
		if d.hasReference() {
			l.refMS = append(l.refMS, l.leg(n, nil, nil, func(i int) error { return d.reference(base + i) })...)
		}
	}

	l.calibrate()
	qry := l.leg(n, nil, d.check, func(i int) error { return d.refresh(base+i, false) })
	l.queryMS = append(l.queryMS, qry...)
	if len(rep) > 0 && len(qry) > 0 {
		l.ratios = append(l.ratios, mean(rep)/mean(qry))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance says what was run and where; it is printed on its own line
// before the result and written into the trace file.
type provenance struct {
	Workload        string    `json:"workload"`
	Seed            int64     `json:"seed"`
	Seconds         float64   `json:"seconds"`
	Trace           bool      `json:"trace"`
	Blocks          int       `json:"blocks"`
	RefreshesPerLeg int       `json:"refreshes_per_leg"`
	ReportSamples   int       `json:"report_samples"`
	CountedBlocks   int       `json:"counted_blocks"`
	MeasuredSeconds float64   `json:"measured_seconds"`
	SetupSeconds    []float64 `json:"setup_seconds"`
	WarmBlocks      int       `json:"warm_blocks"`
	GOMAXPROCS      int       `json:"gomaxprocs"`
	NProc           int       `json:"nproc"`
	GoVersion       string    `json:"go_version"`
	Commit          string    `json:"commit"`
	FlushPolicy     string    `json:"flush_policy"`
	// HostSlowdown is the run's calibration time over the reference
	// host's; the timed end-to-end metrics are divided by it.
	HostSlowdown      float64             `json:"host_slowdown"`
	CalibrationP25MS  [numKernels]float64 `json:"calibration_p25_ms"`
	SetupHostSlowdown float64             `json:"setup_host_slowdown"`
	RawReportP50MS    float64             `json:"raw_report_p50_ms"`
	FirstError        string              `json:"first_error,omitempty"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// setUps sets the workload up setupRepeats times, each followed by the
// warm-up blocks, and returns the last instance, the warm-up's measurements
// (its calibration samples say how fast the host was meanwhile) and the
// number of the next block.
func setUps(o options, prov *provenance) (driver, *legs, int, error) {
	var d driver
	warm := &legs{}
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, 0, fmt.Errorf("closing set-up %d: %w", i, err)
			}
			d = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if d, err = setupWorkload(o); err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		var tr *tracer
		if o.trace {
			tr = newTracer()
		}
		for block := 0; block < warmBlocks; block++ {
			warm.block(d, block, tr, &truth{})
		}
		if warm.firstErr != nil {
			_ = d.close() // the warm-up's error is the one to report
			return nil, nil, 0, fmt.Errorf("warm-up: %w", warm.firstErr)
		}
		prov.SetupSeconds = append(prov.SetupSeconds, time.Since(t0).Seconds())
	}
	return d, warm, warmBlocks, nil
}

// measure sets the workload up, runs blocks for o.seconds, and reduces what
// they measured to the run's metrics.
func measure(o options) (*result, *provenance, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(pinnedProcs))
	prov := &provenance{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		WarmBlocks: warmBlocks, GOMAXPROCS: pinnedProcs, NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit()}
	d, warm, block, err := setUps(o, prov)
	if err != nil {
		return nil, nil, err
	}
	defer d.close()
	prov.FlushPolicy = d.flushPolicy()

	var l legs
	var tr *tracer
	acc := &truth{keepTiming: o.trace}
	if o.trace {
		tr = newTracer()
	}
	runtime.GC()
	gc0 := readMem()
	start := time.Now()
	var counted legs // l as it stood after countBlocks blocks
	countedRSS := 0.0
	for time.Since(start).Seconds() < o.seconds {
		l.block(d, block, tr, acc)
		block++
		prov.Blocks++
		if prov.Blocks == d.countBlocks() {
			counted, countedRSS = l, peakRSSMB()
		}
	}
	if prov.Blocks < d.countBlocks() {
		counted, countedRSS = l, peakRSSMB()
	}
	prov.MeasuredSeconds = time.Since(start).Seconds()
	gc1 := readMem()
	l.op(d.finish())

	// A leg's refreshes are averaged before the median is taken over legs:
	// a garbage collection lands in some refreshes of a leg and not in
	// others, and the median of such a two-humped sample jumps between the
	// humps from run to run.
	n := d.perLeg()
	reportMS := legMedian(l.reportMS, n)
	prov.RefreshesPerLeg = n
	prov.CountedBlocks = min(prov.Blocks, d.countBlocks())
	prov.ReportSamples = len(l.reportMS)
	prov.CalibrationP25MS = l.calibrationP25()
	prov.HostSlowdown = hostSlowdown(prov.CalibrationP25MS)
	prov.SetupHostSlowdown = hostSlowdown(warm.calibrationP25())
	prov.RawReportP50MS = reportMS
	if l.firstErr != nil {
		prov.FirstError = l.firstErr.Error()
	}
	res := &result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}}

	if !o.trace {
		// Times are stated at the reference host's speed: the host this
		// runs on swings by tens of percent over minutes, and the
		// calibration kernels, sampled beside every leg, swing with it.
		return res, prov, fill(res, endToEnd, map[string]float64{
			"setup_s":                 median(prov.SetupSeconds) / prov.SetupHostSlowdown,
			"report_p50_ms":           reportMS / prov.HostSlowdown,
			"query_p50_ms":            legMedian(l.queryMS, n) / prov.HostSlowdown,
			"report_over_query_ratio": median(l.ratios),
			"allocs_per_report":       ratio(float64(counted.mallocs), float64(counted.reports)),
			"alloc_bytes_per_report":  ratio(float64(counted.bytes), float64(counted.reports)),
			"relevant_precision":      ratio(float64(acc.relevant), float64(acc.reported)),
			"peak_rss_mb":             countedRSS,
			"ingest_rows_per_s":       quantile(l.ingestRate, 0.75) * prov.HostSlowdown,
		})
	}

	values, err := perLayerValues(d, &l, acc, tr.summarize(), reportMS)
	if err != nil {
		return nil, nil, err
	}
	values["runtime.gc_cycles_per_kreport"] = ratio(1000*float64(gc1.NumGC-gc0.NumGC), float64(len(l.reportMS)))
	values["runtime.gc_pause_total_ms"] = ms(time.Duration(gc1.PauseTotalNs - gc0.PauseTotalNs))
	values["runtime.host_slowdown"] = prov.HostSlowdown
	if c := values["trace.coverage_ratio"]; c < 0.7 || c > 1.3 {
		// The staged pipeline no longer accounts for the untraced time, so
		// its per-layer numbers cannot be trusted.
		res.Correct = false
		prov.FirstError = fmt.Sprintf("trace.coverage_ratio %.3f outside [0.7, 1.3]: %s", c, prov.FirstError)
	}
	if values["server.sched_shed"] != 0 {
		res.Correct = false
	}
	if err := fill(res, perLayer, values); err != nil {
		return nil, nil, err
	}
	return res, prov, tr.write(o.out, o.workload, prov, res.Metrics)
}

// perLayerValues reduces a traced run to the per-layer metrics, all raw.
func perLayerValues(d driver, l *legs, acc *truth, sum *traceSummary, reportMS float64) (map[string]float64, error) {
	n := d.perLeg()
	kind := func(k spanKind) float64 { return median(sum.kindUS[k]) }
	values := map[string]float64{}
	for _, def := range perLayer {
		values[def.name] = 0 // what a layer the workload never enters reports
	}
	d.layerStats(values, reportMS, legMedian(l.refMS, n))
	// The staged pipeline runs embedded: on the wire workload the wire's
	// share of a refresh is added from outside. The staged server spans
	// (scheduler hand-off, codec) are a part of it, not an addition to it.
	wireRest := 0.0
	if wire := values["server.wire_overhead_ms"]; wire > 0 {
		wireRest = wire - legMedian(sum.layerMS[lyServer], n)
	}
	parseAllocs, err := parseAllocs(`SELECT value, event_time FROM Activity WHERE mach_id = 'Tao1'`)
	if err != nil {
		return nil, err
	}
	for name, v := range map[string]float64{
		"client.report_p90_ms":          quantile(l.reportMS, 0.90),
		"client.report_p99_ms":          quantile(l.reportMS, 0.99),
		"client.refreshes_per_s":        ratio(float64(len(l.reportMS)), l.reportWall.Seconds()),
		"client.samples":                float64(len(l.reportMS)),
		"server.sched_submit_us":        kind(spSubmit),
		"server.codec_encode_report_us": kind(spEncode),
		"server.codec_decode_report_us": kind(spDecode),
		"sqlparser.parse_us":            kind(spParse),
		"sqlparser.parse_allocs":        parseAllocs,
		"engine.normalize_us":           kind(spNormalize),
		"engine.plancache_get_us":       kind(spCacheGet),
		"core.recgen_generate_us":       kind(spGenerate),
		"core.report_generate_ms":       median(acc.generateMS),
		"core.report_userquery_ms":      median(acc.userMS),
		"core.report_recencyquery_ms":   median(acc.recencyMS),
		"core.report_stats_ms":          median(acc.statsMS),
		"core.report_summarize_ms":      kind(spSummarize) / 1000,
		"core.report_materialize_ms":    kind(spMaterialize) / 1000,
		"core.report_sources_reported":  ratio(float64(acc.reported), float64(acc.statements)),
		"core.report_sources_relevant":  ratio(float64(acc.relevant), float64(acc.statements)),
		"planner.plan_user_us":          kind(spPlanUser),
		"planner.plan_recency_us":       kind(spPlanRecency),
		"exec.drain_ms":                 kind(spDrainUser) / 1000,
		"shard.cut_us":                  kind(spCut),
		"trace.coverage_ratio":          ratio(legMedian(sum.coveredMS, n)+wireRest, reportMS),
		"trace.overhead_ratio":          ratio(legMedian(sum.refreshMS, n)+wireRest, reportMS),
	} {
		values[name] = v
	}
	for _, ly := range []layer{lySQLParser, lyEngine, lyRecgen, lyReport, lyPlanner, lyExec, lyShard} {
		values[layerNames[ly]+".self_ms"] = legMedian(sum.layerMS[ly], n)
	}
	return values, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// fill copies the defined metrics into the result. Every defined metric
// must be there, finite, and nothing else may be.
func fill(res *result, defs []metricDef, values map[string]float64) error {
	for _, def := range defs {
		v, ok := values[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || !nameRE.MatchString(def.name) {
			return fmt.Errorf("metric %s is missing or malformed (%v)", def.name, v)
		}
		res.Metrics[def.name] = metric{Value: v, Unit: def.unit}
		delete(values, def.name)
	}
	for name := range values {
		return fmt.Errorf("metric %s is not in the catalogue", name)
	}
	return nil
}

func main() {
	var o options
	var trace int
	var selfcheck bool
	var sets, runs int
	flag.StringVar(&o.workload, "workload", "", "one of wire_point, scan_join, wide_sharded, ingest_durable")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run that prints the per-layer metrics")
	flag.StringVar(&o.out, "out", "out", "directory for traces and database directories")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the whole benchmark -sets times -runs and compare the sets' medians")
	flag.IntVar(&sets, "sets", 2, "selfcheck: sets")
	flag.IntVar(&runs, "runs", 5, "selfcheck: runs per set and workload")
	flag.Parse()
	o.trace = trace != 0

	if selfcheck {
		fatalIf(runSelfcheck(o, sets, runs))
		return
	}
	res, prov, err := measure(o)
	fatalIf(err)
	enc := json.NewEncoder(os.Stdout)
	fatalIf(enc.Encode(struct {
		Provenance *provenance `json:"provenance"`
	}{prov}))
	fatalIf(enc.Encode(res))
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
