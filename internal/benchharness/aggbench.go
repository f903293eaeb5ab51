// Aggregation microbenchmarks: zone-map stat pushdown and morsel-parallel
// partial aggregation vs serial hash aggregation over a full scan, over the
// sealed source-clustered storage dataset. The same scenarios back the Go
// benchmarks (BenchmarkStatAggregate & co.) and the `tracbench -aggbench`
// run that emits BENCH_agg.json.
package benchharness

import (
	"encoding/json"
	"fmt"
	"runtime"

	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
)

// AggBenchResult is one measured pair, serialized into BENCH_agg.json.
// Baseline names what the slow side is, since the scenarios compare against
// different things.
type AggBenchResult struct {
	Name             string  `json:"name"`
	Baseline         string  `json:"baseline"`
	InputRows        int     `json:"input_rows"`
	OutputRows       int     `json:"output_rows"`
	StatSegments     int     `json:"stat_segments,omitempty"`
	ScannedSegments  int     `json:"scanned_segments,omitempty"`
	GoMaxProcs       int     `json:"gomaxprocs"`
	Workers          int     `json:"workers,omitempty"`
	Degenerate       bool    `json:"degenerate,omitempty"`
	Label            string  `json:"label,omitempty"`
	BaselineNsPerRow float64 `json:"baseline_ns_per_row"`
	AggNsPerRow      float64 `json:"agg_ns_per_row"`
	Speedup          float64 `json:"speedup"`
}

// AggBenchReport is the top-level BENCH_agg.json document.
type AggBenchReport struct {
	TotalRows   int              `json:"total_rows"`
	Sources     int              `json:"data_sources"`
	SegmentSize int              `json:"segment_size"`
	Segments    int              `json:"segments"`
	Iterations  int              `json:"iterations"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	Results     []AggBenchResult `json:"results"`
}

// aggScenario pairs a baseline aggregation pipeline with the optimized one,
// capturing the stat-pushdown counters / worker count where they apply.
type aggScenario struct {
	PairScenario
	Baseline     string
	StatSegments *int
	Scanned      *int
	Workers      int
}

// aggCall names one aggregate output: a function over a bare column, or
// COUNT(*) when col is empty.
type aggCall struct {
	fn  sqlparser.FuncName
	col string
}

// buildAggSpecs compiles calls into the parallel spec/argCols form the
// aggregation operators share. Every non-star argument is a bare column, so
// each spec gets both the evaluator and the resolved tuple offset (typed
// batch kernels, stat pushdown).
func buildAggSpecs(layout *exec.Layout, calls []aggCall) ([]exec.AggSpec, []int, error) {
	specs := make([]exec.AggSpec, len(calls))
	argCols := make([]int, len(calls))
	for i, c := range calls {
		specs[i] = exec.AggSpec{Func: c.fn, Star: c.col == ""}
		argCols[i] = -1
		if c.col == "" {
			continue
		}
		ev, err := compileExpr(c.col, layout)
		if err != nil {
			return nil, nil, err
		}
		specs[i].Arg = ev
		off, err := layout.Resolve("", c.col)
		if err != nil {
			return nil, nil, err
		}
		argCols[i] = off
	}
	return specs, argCols, nil
}

// StatCoveredScenario: global COUNT(*)/SUM/MIN/MAX/AVG over the fully
// sealed table with no predicate — every segment is answered from its zone
// maps. Baseline: hash aggregation over a scan that reads every segment.
// This is the shape the recency report layer issues per table (how many
// rows, how stale).
func (d *StorageDataset) StatCoveredScenario() (*aggScenario, error) {
	layout := exec.NewLayout([]exec.Binding{{Name: "t", Table: d.Table}})
	specs, argCols, err := buildAggSpecs(layout, []aggCall{
		{sqlparser.FuncCount, ""},
		{sqlparser.FuncSum, "id"},
		{sqlparser.FuncMin, "id"},
		{sqlparser.FuncMax, "id"},
		{sqlparser.FuncAvg, "id"},
		{sqlparser.FuncMax, "event_time"},
	})
	if err != nil {
		return nil, err
	}
	snap := d.Mgr.ReadSnapshot()
	sc := &aggScenario{Baseline: "scan-aggregate", StatSegments: new(int), Scanned: new(int)}
	sc.Name = "stat-covered"
	sc.InputRows = d.Rows
	sc.Base = func() (int, error) {
		return countBatches(&exec.BatchGroupAggregate{
			Src:   &exec.BatchScan{Table: d.Table, Snap: snap},
			Specs: specs, ArgCols: argCols,
		})
	}
	sc.Opt = func() (int, error) {
		scan := &exec.StatAggScan{
			Table: d.Table, Snap: snap,
			Specs: specs, ArgCols: argCols,
		}
		n, err := countBatches(scan)
		*sc.StatSegments, *sc.Scanned = scan.StatSegments, scan.ScannedSegments
		return n, err
	}
	return sc, nil
}

// ParallelMergeScenario: a wide GROUP BY (one group per source) comparing
// the serial vectorized hash aggregation against morsel-parallel partial
// aggregation with a table merge at gather — the measured quantity is the
// scaling of partial build + merge, not row-vs-vector kernels (both sides
// run the same batch kernels).
func (d *StorageDataset) ParallelMergeScenario(workers int) (*aggScenario, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers < 2 {
			// On a 1-core box a defaulted worker count of 1 would silently
			// measure the serial path against itself. Force real fan-out so
			// the partial build + merge machinery is exercised; the result
			// is labeled degenerate (see DegenerateParallel) instead of
			// reported as an honest scaling number.
			workers = 2
		}
	}
	layout := exec.NewLayout([]exec.Binding{{Name: "t", Table: d.Table}})
	keyEv, err := compileExpr("mach_id", layout)
	if err != nil {
		return nil, err
	}
	keyCol, err := layout.Resolve("", "mach_id")
	if err != nil {
		return nil, err
	}
	specs, argCols, err := buildAggSpecs(layout, []aggCall{
		{sqlparser.FuncCount, ""},
		{sqlparser.FuncSum, "id"},
		{sqlparser.FuncMin, "event_time"},
		{sqlparser.FuncMax, "event_time"},
	})
	if err != nil {
		return nil, err
	}
	snap := d.Mgr.ReadSnapshot()
	sc := &aggScenario{Baseline: "serial-batch", Workers: workers}
	sc.Name = "parallel-merge"
	sc.InputRows = d.Rows
	sc.PairScenario.Workers = workers
	sc.Base = func() (int, error) {
		return countBatches(&exec.BatchGroupAggregate{
			Src:  &exec.BatchScan{Table: d.Table, Snap: snap},
			Keys: []exec.Evaluator{keyEv}, KeyCols: []int{keyCol},
			Specs: specs, ArgCols: argCols,
		})
	}
	sc.Opt = func() (int, error) {
		return countBatches(&exec.ParallelGroupAggregate{
			Scan: &exec.ParallelScan{Table: d.Table, Snap: snap, Workers: workers},
			Keys: []exec.Evaluator{keyEv}, KeyCols: []int{keyCol},
			Specs: specs, ArgCols: argCols,
		})
	}
	return sc, nil
}

// AggScenarios builds the measured set.
func (d *StorageDataset) AggScenarios() ([]*aggScenario, error) {
	covered, err := d.StatCoveredScenario()
	if err != nil {
		return nil, err
	}
	merge, err := d.ParallelMergeScenario(0)
	if err != nil {
		return nil, err
	}
	return []*aggScenario{covered, merge}, nil
}

// RunAggBench measures every aggregation scenario over a fully sealed
// clustered dataset and assembles the report.
//
//tracvet:ignore catbump see BuildStorageDataset: the dataset table never enters a catalog
func RunAggBench(totalRows, sources, segmentSize, iterations int, progress func(string)) (*AggBenchReport, error) {
	if iterations < 1 {
		iterations = 3
	}
	if segmentSize <= 0 {
		segmentSize = storage.DefaultSegmentSize
	}
	d, err := BuildStorageDataset(totalRows, sources, segmentSize)
	if err != nil {
		return nil, err
	}
	scenarios, err := d.AggScenarios()
	if err != nil {
		return nil, err
	}
	report := &AggBenchReport{
		TotalRows: totalRows, Sources: sources, SegmentSize: segmentSize,
		Segments: d.Table.NumSegments(), Iterations: iterations,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, sc := range scenarios {
		res, err := MeasurePair(&sc.PairScenario, iterations)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		r := AggBenchResult{
			Name: res.Name, Baseline: sc.Baseline,
			InputRows: res.InputRows, OutputRows: res.OutputRows,
			GoMaxProcs: res.GoMaxProcs, Workers: sc.Workers,
			Degenerate: res.Degenerate, Label: res.Label,
			BaselineNsPerRow: res.BaseNsPerRow, AggNsPerRow: res.OptNsPerRow,
			Speedup: res.Speedup,
		}
		if sc.StatSegments != nil {
			r.StatSegments, r.ScannedSegments = *sc.StatSegments, *sc.Scanned
		}
		if progress != nil {
			note := ""
			if r.Degenerate {
				note = "   [degenerate]"
			}
			progress(fmt.Sprintf("%-14s %-13s %8.1f ns/row   optimized %8.1f ns/row   speedup %6.2fx%s",
				r.Name, r.Baseline, r.BaselineNsPerRow, r.AggNsPerRow, r.Speedup, note))
		}
		report.Results = append(report.Results, r)
	}
	return report, nil
}

// MarshalAggBench renders the report as the BENCH_agg.json document.
func MarshalAggBench(r *AggBenchReport) ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
