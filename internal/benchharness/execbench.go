// Exec-layer microbenchmarks: vectorized batch execution vs the
// tuple-at-a-time baseline, over the package workload dataset. The same
// scenarios back the Go benchmarks (BenchmarkVectorizedFilter & co.) and
// the `tracbench -execbench` run that emits BENCH_exec.json.
package benchharness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"trac/internal/engine"
	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
	"trac/internal/workload"
)

// ExecScenario is one vectorized-vs-row measurement pair. Each side runs
// the same logical pipeline to completion and returns the number of output
// rows (a correctness cross-check between the two sides).
type ExecScenario struct {
	Name      string
	InputRows int // rows entering the pipeline per run
	Workers   int // >0 when the optimized side fans out across goroutines
	Row       func() (int, error)
	Vec       func() (int, error)
}

// ExecBenchResult is one measured pair, serialized into BENCH_exec.json.
// Every scenario records the GOMAXPROCS it ran under and, for parallel
// scenarios, the worker count; a parallel scenario measured on a box that
// cannot actually run its workers concurrently is labeled degenerate rather
// than silently reported as a ~1x "speedup".
type ExecBenchResult struct {
	Name          string  `json:"name"`
	InputRows     int     `json:"input_rows"`
	OutputRows    int     `json:"output_rows"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	Workers       int     `json:"workers,omitempty"`
	Degenerate    bool    `json:"degenerate,omitempty"`
	Label         string  `json:"label,omitempty"`
	RowNsPerRow   float64 `json:"row_ns_per_row"`
	VecNsPerRow   float64 `json:"vectorized_ns_per_row"`
	RowRowsPerSec float64 `json:"row_rows_per_sec"`
	VecRowsPerSec float64 `json:"vectorized_rows_per_sec"`
	Speedup       float64 `json:"speedup"`
}

// DegenerateParallel reports whether a scenario that wants `workers`
// concurrent goroutines cannot get any real concurrency at the current
// GOMAXPROCS, and the label to attach to its measurement if so.
func DegenerateParallel(workers int) (bool, string) {
	procs := runtime.GOMAXPROCS(0)
	if workers > 1 && procs < 2 {
		return true, fmt.Sprintf("degenerate: %d workers time-sliced on GOMAXPROCS=%d; measures fan-out overhead, not scaling", workers, procs)
	}
	return false, ""
}

// ExecBenchReport is the top-level BENCH_exec.json document.
type ExecBenchReport struct {
	TotalRows  int               `json:"total_rows"`
	Sources    int               `json:"data_sources"`
	Iterations int               `json:"iterations"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Results    []ExecBenchResult `json:"results"`
}

// ExecDataset bundles the tables and manager the scenarios run over.
type ExecDataset struct {
	DB       *engine.DB
	Activity *storage.Table
	Routing  *storage.Table
	Mgr      *txn.Manager
	Rows     int
	Sources  int
}

// BuildExecDataset loads the workload at the given size.
func BuildExecDataset(totalRows, sources int) (*ExecDataset, error) {
	db, err := workload.Build(workload.Spec{TotalRows: totalRows, DataSources: sources, Seed: 1})
	if err != nil {
		return nil, err
	}
	act, err := db.Catalog().Get("Activity")
	if err != nil {
		return nil, err
	}
	rout, err := db.Catalog().Get("Routing")
	if err != nil {
		return nil, err
	}
	return &ExecDataset{
		DB: db, Activity: act, Routing: rout, Mgr: db.Manager(),
		Rows: totalRows, Sources: sources,
	}, nil
}

func compileExpr(src string, layout *exec.Layout) (exec.Evaluator, error) {
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	return exec.Compile(e, layout)
}

func compileKernel(src string, layout *exec.Layout) (exec.Kernel, error) {
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	k, _, _, err := exec.CompileKernel(e, layout)
	return k, err
}

// countRows drains a row operator, counting output (no retention, so scan
// buffer reuse on the baseline is legal, as in planner-built pipelines).
func countRows(op exec.Operator) (int, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	n := 0
	for {
		_, ok, err := op.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// countBatches drains a batch operator, counting selected rows.
func countBatches(op exec.BatchOperator) (int, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	n := 0
	for {
		b, err := op.NextBatch()
		if err != nil {
			return 0, err
		}
		if b == nil {
			return n, nil
		}
		n += b.Len()
		exec.PutBatch(b)
	}
}

// FilterScenario: scan Activity and keep value = 'idle' (~50% selective).
// Row side: SeqScan with buffer reuse + compiled predicate closure per row.
// Vectorized side: BatchScan with the fused TEXT equality kernel.
func (d *ExecDataset) FilterScenario() (*ExecScenario, error) {
	layout := exec.NewLayout([]exec.Binding{{Name: "a", Table: d.Activity}})
	const pred = "value = 'idle'"
	ev, err := compileExpr(pred, layout)
	if err != nil {
		return nil, err
	}
	k, err := compileKernel(pred, layout)
	if err != nil {
		return nil, err
	}
	snap := d.Mgr.ReadSnapshot()
	return &ExecScenario{
		Name:      "filter",
		InputRows: d.Rows,
		Row: func() (int, error) {
			return countRows(&exec.SeqScan{Table: d.Activity, Snap: snap, Filter: ev, Reuse: true})
		},
		Vec: func() (int, error) {
			return countBatches(&exec.BatchScan{Table: d.Activity, Snap: snap, Kernel: k})
		},
	}, nil
}

// JoinProbeScenario: hash-join Routing (build, one row per source) against
// Activity (probe) on machine id. Both sides share the identical serial
// build; the measured difference is the probe loop — per-row key hashing
// and padded-tuple merges vs the columnar probe (keys read off the key
// vector, nothing gathered: the scenario only counts matches).
func (d *ExecDataset) JoinProbeScenario() (*ExecScenario, error) {
	layout := exec.NewLayout([]exec.Binding{
		{Name: "r", Table: d.Routing},
		{Name: "a", Table: d.Activity},
	})
	width := layout.Width()
	actOff := layout.Bindings[1].Offset
	buildKey, err := compileExpr("r.neighbor", layout)
	if err != nil {
		return nil, err
	}
	probeKey, err := compileExpr("a.mach_id", layout)
	if err != nil {
		return nil, err
	}
	probeCol, err := layout.Resolve("a", "mach_id")
	if err != nil {
		return nil, err
	}
	snap := d.Mgr.ReadSnapshot()
	build := func() exec.Operator {
		return &exec.SeqScan{Table: d.Routing, Snap: snap, Offset: 0, Width: width}
	}
	return &ExecScenario{
		Name:      "join-probe",
		InputRows: d.Rows,
		Row: func() (int, error) {
			return countRows(&exec.HashJoin{
				Build:     build(),
				Probe:     &exec.SeqScan{Table: d.Activity, Snap: snap, Offset: actOff, Width: width, Reuse: true},
				BuildKeys: []exec.Evaluator{buildKey}, ProbeKeys: []exec.Evaluator{probeKey},
			})
		},
		Vec: func() (int, error) {
			return countBatches(&exec.BatchHashJoin{
				Build:     build(),
				Probe:     &exec.BatchScan{Table: d.Activity, Snap: snap, Offset: actOff, Width: width, Need: []int{probeCol}},
				BuildKeys: []exec.Evaluator{buildKey}, ProbeKeys: []exec.Evaluator{probeKey},
				ProbeCols: []int{probeCol}, Need: []int{},
			})
		},
	}, nil
}

// ExchangeScenario: gather a 4-worker morsel-driven parallel scan of
// Activity through an exchange. Row side: one channel send per tuple (the
// pre-batch exchange design). Vectorized side: the production Exchange
// moving ~BatchSize-row batches per send.
func (d *ExecDataset) ExchangeScenario(workers int) (*ExecScenario, error) {
	snap := d.Mgr.ReadSnapshot()
	mkScan := func() *exec.ParallelScan {
		return &exec.ParallelScan{Table: d.Activity, Snap: snap, Workers: workers}
	}
	return &ExecScenario{
		Name:      "exchange",
		InputRows: d.Rows,
		Workers:   workers,
		Row: func() (int, error) {
			return rowExchangeCount(mkScan().BatchPartials())
		},
		Vec: func() (int, error) {
			return countBatches(mkScan())
		},
	}, nil
}

// rowExchangeCount replays the tuple-at-a-time exchange: every worker sends
// each row as its own channel message. It is the baseline design the
// batched Exchange replaced.
func rowExchangeCount(partials []exec.BatchOperator) (int, error) {
	type rowMsg struct {
		row []types.Value
		err error
	}
	ch := make(chan rowMsg, 2*len(partials))
	var wg sync.WaitGroup
	for _, part := range partials {
		wg.Add(1)
		go func(op exec.BatchOperator) {
			defer wg.Done()
			if err := op.Open(); err != nil {
				ch <- rowMsg{err: err}
				return
			}
			defer op.Close()
			for {
				b, err := op.NextBatch()
				if err != nil {
					ch <- rowMsg{err: err}
					return
				}
				if b == nil {
					return
				}
				for _, row := range b.AppendRows(nil) {
					ch <- rowMsg{row: row}
				}
				exec.PutBatch(b)
			}
		}(part)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	n := 0
	for m := range ch {
		if m.err != nil {
			// Drain remaining messages so producers do not block forever.
			for range ch {
			}
			return 0, m.err
		}
		n++
	}
	return n, nil
}

// RunExecBench measures every scenario and assembles the report.
func RunExecBench(totalRows, sources, iterations int, progress func(string)) (*ExecBenchReport, error) {
	if iterations < 1 {
		iterations = 3
	}
	d, err := BuildExecDataset(totalRows, sources)
	if err != nil {
		return nil, err
	}
	filter, err := d.FilterScenario()
	if err != nil {
		return nil, err
	}
	join, err := d.JoinProbeScenario()
	if err != nil {
		return nil, err
	}
	exch, err := d.ExchangeScenario(4)
	if err != nil {
		return nil, err
	}
	report := &ExecBenchReport{
		TotalRows: totalRows, Sources: sources, Iterations: iterations,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, sc := range []*ExecScenario{filter, join, exch} {
		res, err := MeasureExecScenario(sc, iterations)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		if progress != nil {
			progress(fmt.Sprintf("%-12s row %8.1f ns/row   vectorized %8.1f ns/row   speedup %.2fx",
				res.Name, res.RowNsPerRow, res.VecNsPerRow, res.Speedup))
		}
		report.Results = append(report.Results, *res)
	}
	return report, nil
}

// MeasureExecScenario times both sides of a scenario and cross-checks that
// they produced the same output cardinality. The sides are interleaved —
// GC settle, one row run, one vectorized run, per iteration, keeping each
// side's fastest — so both sides see the same heap state; timing one side
// to completion first hands the other a grown heap and a different GC
// pacing, which skews allocation-heavy scenarios by tens of ns/row.
func MeasureExecScenario(sc *ExecScenario, iterations int) (*ExecBenchResult, error) {
	rowOut, vecOut := 0, 0
	var rowTime, vecTime time.Duration
	// Untimed warm-up of each side.
	if _, err := sc.Row(); err != nil {
		return nil, err
	}
	if _, err := sc.Vec(); err != nil {
		return nil, err
	}
	for i := 0; i < iterations; i++ {
		runtime.GC()
		start := time.Now()
		n, err := sc.Row()
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		rowOut = n
		if rowTime == 0 || d < rowTime {
			rowTime = d
		}
		runtime.GC()
		start = time.Now()
		n, err = sc.Vec()
		d = time.Since(start)
		if err != nil {
			return nil, err
		}
		vecOut = n
		if vecTime == 0 || d < vecTime {
			vecTime = d
		}
	}
	if rowOut != vecOut {
		return nil, fmt.Errorf("output mismatch: row %d vs vectorized %d", rowOut, vecOut)
	}
	perRow := func(d time.Duration) float64 { return float64(d) / float64(sc.InputRows) }
	perSec := func(d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(sc.InputRows) / d.Seconds()
	}
	degenerate, label := DegenerateParallel(sc.Workers)
	return &ExecBenchResult{
		Name: sc.Name, InputRows: sc.InputRows, OutputRows: rowOut,
		GoMaxProcs: runtime.GOMAXPROCS(0), Workers: sc.Workers,
		Degenerate: degenerate, Label: label,
		RowNsPerRow: perRow(rowTime), VecNsPerRow: perRow(vecTime),
		RowRowsPerSec: perSec(rowTime), VecRowsPerSec: perSec(vecTime),
		Speedup: float64(rowTime) / float64(vecTime),
	}, nil
}

// MarshalExecBench renders the report as the BENCH_exec.json document.
func MarshalExecBench(r *ExecBenchReport) ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
