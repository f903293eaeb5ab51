// Benchmarks regenerating the paper's evaluation under `go test -bench`.
//
// One benchmark family per published table/figure:
//
//	BenchmarkFigure1_*   — §5.2 Figure 1: recency-reporting overhead for
//	                       Q1–Q4 across the (data ratio × sources) sweep,
//	                       for the Naive / Focused / Focused-without-
//	                       generation methods. The reported metrics include
//	                       overhead% (the paper's y-axis).
//	BenchmarkFigure2_*   — §5.2 Figure 2: absolute response time with and
//	                       without recency reporting for Q1 and Q3 at low
//	                       data ratios.
//	BenchmarkTableFPR    — §5.2 fpr table: false positive rates as custom
//	                       metrics (naive-fpr, focused-fpr).
//	BenchmarkAblation*   — the DESIGN.md ablations: query generation cost,
//	                       statistics pass, temp-table materialization,
//	                       index vs sequential Heartbeat probing.
//
// The sweep here uses a 100,000-row Activity table so `go test -bench=.`
// stays minutes-scale; cmd/tracbench runs the full-size version (up to the
// paper's 10,000,000 rows).
package trac_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"trac"
	"trac/internal/benchharness"
	"trac/internal/core/recgen"
	"trac/internal/core/report"
	"trac/internal/engine"
	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
	"trac/internal/workload"
)

const benchTotalRows = 100_000

// buildCache shares one dataset per ratio across benchmarks.
var buildCache = map[int]*engine.DB{}

func datasetFor(b *testing.B, ratio int) *engine.DB {
	b.Helper()
	if db, ok := buildCache[ratio]; ok {
		return db
	}
	db, err := workload.Build(workload.Spec{
		TotalRows:   benchTotalRows,
		DataSources: benchTotalRows / ratio,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	buildCache[ratio] = db
	// Settle the allocator before anything is measured against this
	// dataset: the build leaves GC debt that would otherwise distort the
	// first measurement.
	runtime.GC()
	runtime.GC()
	return db
}

var figureRatios = []int{10, 100, 1000, 10000}

// benchFigure1 runs one (query, method) cell across all ratios.
func benchFigure1(b *testing.B, qname string, method string) {
	sql, err := workload.Query(qname)
	if err != nil {
		b.Fatal(err)
	}
	for _, ratio := range figureRatios {
		b.Run(fmt.Sprintf("ratio=%d", ratio), func(b *testing.B) {
			db := datasetFor(b, ratio)

			// t1: the bare user query, measured outside the timed loop to
			// report the overhead metric afterwards.
			userNs := measureOnce(b, func() error {
				_, err := db.Query(sql)
				return err
			})

			var runOne func() error
			switch method {
			case benchharness.MethodNaive:
				runOne = func() error {
					sess := db.NewSession()
					defer sess.Close()
					_, err := report.Run(sess, sql, report.Config{Method: report.Naive})
					return err
				}
			case benchharness.MethodFocused:
				// DisableCache: this series measures the FULL pipeline
				// including parse + generation on every run.
				runOne = func() error {
					sess := db.NewSession()
					defer sess.Close()
					_, err := report.Run(sess, sql, report.Config{Method: report.Focused, DisableCache: true})
					return err
				}
			case benchharness.MethodFocusedCached:
				runOne = func() error {
					sess := db.NewSession()
					defer sess.Close()
					_, err := report.Run(sess, sql, report.Config{Method: report.Focused})
					return err
				}
			case benchharness.MethodFocusedNoGen:
				prepared, err := report.Prepare(db, sql, report.Config{})
				if err != nil {
					b.Fatal(err)
				}
				runOne = func() error {
					sess := db.NewSession()
					defer sess.Close()
					_, err := prepared.Execute(sess)
					return err
				}
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := runOne(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if userNs > 0 {
				b.ReportMetric(100*(reportNs-userNs)/userNs, "overhead%")
			}
			b.ReportMetric(userNs, "user-ns")
		})
	}
}

func BenchmarkFigure1_Q1_Naive(b *testing.B) { benchFigure1(b, "Q1", benchharness.MethodNaive) }
func BenchmarkFigure1_Q1_Focused(b *testing.B) {
	benchFigure1(b, "Q1", benchharness.MethodFocused)
}
func BenchmarkFigure1_Q1_FocusedNoGen(b *testing.B) {
	benchFigure1(b, "Q1", benchharness.MethodFocusedNoGen)
}
func BenchmarkFigure1_Q1_FocusedCached(b *testing.B) {
	benchFigure1(b, "Q1", benchharness.MethodFocusedCached)
}
func BenchmarkFigure1_Q2_Naive(b *testing.B) { benchFigure1(b, "Q2", benchharness.MethodNaive) }
func BenchmarkFigure1_Q2_Focused(b *testing.B) {
	benchFigure1(b, "Q2", benchharness.MethodFocused)
}
func BenchmarkFigure1_Q2_FocusedNoGen(b *testing.B) {
	benchFigure1(b, "Q2", benchharness.MethodFocusedNoGen)
}
func BenchmarkFigure1_Q3_Naive(b *testing.B) { benchFigure1(b, "Q3", benchharness.MethodNaive) }
func BenchmarkFigure1_Q3_Focused(b *testing.B) {
	benchFigure1(b, "Q3", benchharness.MethodFocused)
}
func BenchmarkFigure1_Q3_FocusedNoGen(b *testing.B) {
	benchFigure1(b, "Q3", benchharness.MethodFocusedNoGen)
}
func BenchmarkFigure1_Q3_FocusedCached(b *testing.B) {
	benchFigure1(b, "Q3", benchharness.MethodFocusedCached)
}
func BenchmarkFigure1_Q4_Naive(b *testing.B) { benchFigure1(b, "Q4", benchharness.MethodNaive) }
func BenchmarkFigure1_Q4_Focused(b *testing.B) {
	benchFigure1(b, "Q4", benchharness.MethodFocused)
}
func BenchmarkFigure1_Q4_FocusedNoGen(b *testing.B) {
	benchFigure1(b, "Q4", benchharness.MethodFocusedNoGen)
}

// benchFigure2 measures the absolute response times the paper zooms into:
// user query alone vs with the (Focused, auto-generated) recency report.
func benchFigure2(b *testing.B, qname string, withReport bool) {
	sql, err := workload.Query(qname)
	if err != nil {
		b.Fatal(err)
	}
	for _, ratio := range figureRatios {
		b.Run(fmt.Sprintf("ratio=%d", ratio), func(b *testing.B) {
			db := datasetFor(b, ratio)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if withReport {
					sess := db.NewSession()
					if _, err := report.Run(sess, sql, report.Config{}); err != nil {
						b.Fatal(err)
					}
					sess.Close()
				} else {
					if _, err := db.Query(sql); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkFigure2_Q1_UserOnly(b *testing.B)   { benchFigure2(b, "Q1", false) }
func BenchmarkFigure2_Q1_WithReport(b *testing.B) { benchFigure2(b, "Q1", true) }
func BenchmarkFigure2_Q3_UserOnly(b *testing.B)   { benchFigure2(b, "Q3", false) }
func BenchmarkFigure2_Q3_WithReport(b *testing.B) { benchFigure2(b, "Q3", true) }

// BenchmarkTableFPR reproduces the §5.2 false-positive-rate table. The fpr
// values are reported as custom metrics; timing measures the focused
// relevant-source computation.
func BenchmarkTableFPR(b *testing.B) {
	for _, qname := range []string{"Q1", "Q2", "Q3", "Q4"} {
		b.Run(qname, func(b *testing.B) {
			const sources = 10_000
			db := datasetFor(b, benchTotalRows/sources)
			sql, _ := workload.Query(qname)
			expected, _ := workload.ExpectedRelevant(qname, sources)

			var focusedCount int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := db.NewSession()
				rep, err := report.Run(sess, sql, report.Config{SkipTempTables: true})
				if err != nil {
					b.Fatal(err)
				}
				focusedCount = len(rep.Normal) + len(rep.Exceptional)
				sess.Close()
			}
			b.StopTimer()
			if focusedCount < expected {
				b.Fatalf("completeness violated: focused %d < |S| %d", focusedCount, expected)
			}
			b.ReportMetric(float64(focusedCount-expected)/float64(expected), "focused-fpr")
			b.ReportMetric(float64(sources-expected)/float64(expected), "naive-fpr")
		})
	}
}

// BenchmarkAblationGeneration isolates the cost the paper attributes to
// "query parsing and recency query generation": Prepare alone.
func BenchmarkAblationGeneration(b *testing.B) {
	db := datasetFor(b, 100)
	sql, _ := workload.Query("Q3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.Prepare(db, sql, report.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStats compares the report pipeline with and without the
// z-score/statistics pass.
func BenchmarkAblationStats(b *testing.B) {
	db := datasetFor(b, 10) // 10,000 sources: the stats pass has real work
	sql, _ := workload.Query("Q2")
	for _, skip := range []bool{false, true} {
		name := "with-stats"
		if skip {
			name = "without-stats"
		}
		b.Run(name, func(b *testing.B) {
			prepared, err := report.Prepare(db, sql, report.Config{SkipStats: skip, SkipTempTables: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := db.NewSession()
				if _, err := prepared.Execute(sess); err != nil {
					b.Fatal(err)
				}
				sess.Close()
			}
		})
	}
}

// BenchmarkAblationTempTables compares materializing sys_temp_* tables
// against keeping the recency rows in memory only.
func BenchmarkAblationTempTables(b *testing.B) {
	db := datasetFor(b, 10)
	sql, _ := workload.Query("Q2")
	for _, skip := range []bool{false, true} {
		name := "with-temp-tables"
		if skip {
			name = "without-temp-tables"
		}
		b.Run(name, func(b *testing.B) {
			prepared, err := report.Prepare(db, sql, report.Config{SkipTempTables: skip})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := db.NewSession()
				if _, err := prepared.Execute(sess); err != nil {
					b.Fatal(err)
				}
				sess.Close()
			}
		})
	}
}

// BenchmarkAblationRecencyExec compares executing the generated recency
// query from SQL text (parse + plan each time) against executing the
// already-planned statement — the paper's PL/pgSQL parsing pain point.
func BenchmarkAblationRecencyExec(b *testing.B) {
	db := datasetFor(b, 100)
	sql, _ := workload.Query("Q1")
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := recgen.Generate(sel, db.Catalog(), recgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("from-text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryAt(gen.SQL, db.Snapshot()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pre-parsed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryStmtAt(gen.Stmt, db.Snapshot()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// measureOnce times a settled execution (warm-up plus the average of five
// runs) in nanoseconds, for the baseline the overhead metric divides by.
func measureOnce(b *testing.B, fn func() error) float64 {
	b.Helper()
	runtime.GC()
	if err := fn(); err != nil { // warm-up
		b.Fatal(err)
	}
	const reps = 5
	start := testingNow()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			b.Fatal(err)
		}
	}
	return float64(testingSince(start).Nanoseconds()) / reps
}

// BenchmarkPublicAPIRecencyReport measures the end-to-end public API on the
// paper's running example schema (small data: the per-call overhead floor).
func BenchmarkPublicAPIRecencyReport(b *testing.B) {
	db := trac.Open()
	db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`)
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	db.MustExec(`CREATE INDEX i ON Activity (mach_id)`)
	if err := db.SetSourceColumn("Activity", "mach_id"); err != nil {
		b.Fatal(err)
	}
	db.MustExec(`INSERT INTO Activity VALUES ('m1', 'idle', '2006-03-15 14:19:00')`)
	db.MustExec(`INSERT INTO Heartbeat VALUES ('m1', '2006-03-15 14:20:05')`)
	sess := db.NewSession()
	defer sess.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sess.RecencyReport(`SELECT mach_id FROM Activity WHERE mach_id = 'm1'`,
			trac.WithoutTempTables())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Normal) != 1 {
			b.Fatal("unexpected report")
		}
	}
}

// testingNow/testingSince isolate the one-off wall-clock measurement used
// for the overhead metric.
func testingNow() time.Time                  { return time.Now() }
func testingSince(t time.Time) time.Duration { return time.Since(t) }

// BenchmarkParallelScan measures the morsel-driven parallel heap scan
// against the single-threaded batch scan at two table sizes. On a
// multi-core host the GOMAXPROCS variant should approach core-count
// speedup; on one core it measures the exchange overhead instead.
func BenchmarkParallelScan(b *testing.B) {
	for _, total := range []int{100_000, 1_000_000} {
		schema, err := storage.NewSchema([]storage.Column{
			{Name: "mach_id", Kind: types.KindString},
			{Name: "value", Kind: types.KindString},
		})
		if err != nil {
			b.Fatal(err)
		}
		tbl := storage.NewTable("Scan", schema)
		mgr := txn.NewManager()
		tx := mgr.Begin()
		for i := 0; i < total; i++ {
			val := "busy"
			if i%4 == 0 {
				val = "idle"
			}
			if err := tx.InsertRow(tbl, storage.NewRow([]types.Value{
				types.NewString(fmt.Sprintf("m%d", i%1000)), types.NewString(val),
			}, 0)); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		snap := mgr.ReadSnapshot()
		layout := exec.NewLayout([]exec.Binding{{Name: "s", Table: tbl}})
		e, err := sqlparser.ParseExpr("value = 'idle'")
		if err != nil {
			b.Fatal(err)
		}
		kernel, _, _, err := exec.CompileKernel(e, layout)
		if err != nil {
			b.Fatal(err)
		}
		want := total / 4
		runtime.GC()

		drain := func(b *testing.B, op exec.BatchOperator) {
			rows, err := exec.Drain(op)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != want {
				b.Fatalf("rows = %d, want %d", len(rows), want)
			}
		}
		b.Run(fmt.Sprintf("rows=%d/seq", total), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drain(b, &exec.BatchScan{Table: tbl, Snap: snap, Kernel: kernel})
			}
		})
		workerCounts := []int{1}
		if n := runtime.GOMAXPROCS(0); n > 1 {
			workerCounts = append(workerCounts, n)
		}
		for _, workers := range workerCounts {
			b.Run(fmt.Sprintf("rows=%d/parallel=%d", total, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					drain(b, &exec.ParallelScan{Table: tbl, Snap: snap, Kernel: kernel, Workers: workers})
				}
			})
		}
	}
}

// BenchmarkPreparedReportCached isolates the plan cache's effect on the
// recency-report pipeline: uncached pays parse + classification +
// generation per report, cached pays one lookup. Q1's user query is
// sub-millisecond at this ratio, so the fixed generation cost is the
// dominant term the cache removes (the Figure 2 low-ratio regime).
func BenchmarkPreparedReportCached(b *testing.B) {
	db := datasetFor(b, 100)
	sql, _ := workload.Query("Q1")
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			cfg := report.Config{SkipTempTables: true, DisableCache: !cached}
			// Prime the cache outside the timed region.
			sess := db.NewSession()
			if _, err := report.Run(sess, sql, cfg); err != nil {
				b.Fatal(err)
			}
			sess.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := db.NewSession()
				rep, err := report.Run(sess, sql, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if rep.CachedPlan != cached {
					b.Fatalf("CachedPlan = %v, want %v", rep.CachedPlan, cached)
				}
				sess.Close()
			}
		})
	}
}

// BenchmarkAblationAnalyze compares a skewed range query planned with and
// without ANALYZE statistics (histogram-driven index choice).
func BenchmarkAblationAnalyze(b *testing.B) {
	mk := func(analyze bool) *engine.DB {
		db := engine.New()
		db.MustExec(`CREATE TABLE E (sid TEXT, v BIGINT)`)
		db.MustExec(`CREATE INDEX iv ON E (v)`)
		batch := db.BeginBatch()
		for i := 0; i < 200_000; i++ {
			v := i % 100
			if i%100 == 0 {
				v = 900 + i%30
			}
			batch.Exec(fmt.Sprintf(`INSERT INTO E VALUES ('s%d', %d)`, i%7, v))
		}
		if err := batch.Commit(); err != nil {
			b.Fatal(err)
		}
		if analyze {
			db.MustExec(`ANALYZE E`)
		}
		return db
	}
	// The range covers 99% of the table: without statistics the planner
	// guesses 1/3 selectivity and picks the index range scan; the histogram
	// reveals the truth and keeps the cheaper sequential scan.
	const q = `SELECT COUNT(*) FROM E WHERE v < 900`
	for _, analyzed := range []bool{false, true} {
		name := "without-analyze"
		if analyzed {
			name = "with-analyze"
		}
		db := mk(analyzed)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := db.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rows[0][0].Int() != 198_000 {
					b.Fatalf("count = %v", res.Rows[0][0])
				}
			}
		})
	}
}
