// Storage-layer microbenchmarks: a scan of sealed columnar segments with
// zone-map pruning vs the same scan reading every segment, over a
// source-clustered dataset (the paper's ingestion order: sniffer logs arrive
// one source at a time, so consecutive heap rows share a source). The same
// scenarios back the Go benchmarks and the `tracbench -storagebench` run
// that emits BENCH_storage.json.
package benchharness

import (
	"encoding/json"
	"fmt"
	"runtime"

	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// StorageBenchResult is one measured pair plus the zone-map outcome on the
// pruning side, serialized into BENCH_storage.json.
type StorageBenchResult struct {
	Name             string  `json:"name"`
	Predicate        string  `json:"predicate"`
	InputRows        int     `json:"input_rows"`
	OutputRows       int     `json:"output_rows"`
	PrunedSegments   int     `json:"pruned_segments"`
	ScannedSegments  int     `json:"scanned_segments"`
	UnprunedNsPerRow float64 `json:"unpruned_ns_per_row"`
	PrunedNsPerRow   float64 `json:"pruned_ns_per_row"`
	Speedup          float64 `json:"speedup"`
}

// StorageBenchReport is the top-level BENCH_storage.json document.
type StorageBenchReport struct {
	TotalRows   int                  `json:"total_rows"`
	Sources     int                  `json:"data_sources"`
	SegmentSize int                  `json:"segment_size"`
	Segments    int                  `json:"segments"`
	Iterations  int                  `json:"iterations"`
	GoMaxProcs  int                  `json:"gomaxprocs"`
	Results     []StorageBenchResult `json:"results"`
}

// StorageDataset is a fully sealed, source-clustered Activity-style table.
type StorageDataset struct {
	Table   *storage.Table
	Mgr     *txn.Manager
	Rows    int
	Sources int
}

// BuildStorageDataset loads totalRows rows clustered by source — source
// s owns the contiguous id range [s*rowsPer, (s+1)*rowsPer) — and seals the
// whole heap into segmentSize-row segments. Clustering is what makes zone
// maps selective: each segment covers a narrow id/time range and a handful
// of sources.
//
//tracvet:ignore catbump the table is bench-private and never enters a catalog, so no plan cache can observe the source-column change
func BuildStorageDataset(totalRows, sources, segmentSize int) (*StorageDataset, error) {
	schema, err := storage.NewSchema([]storage.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "mach_id", Kind: types.KindString},
		{Name: "value", Kind: types.KindString},
		{Name: "load", Kind: types.KindFloat},
		{Name: "event_time", Kind: types.KindTime},
	})
	if err != nil {
		return nil, err
	}
	if err := schema.SetSourceColumn("mach_id"); err != nil {
		return nil, err
	}
	tbl := storage.NewTable("Activity", schema)
	tbl.SetSealThreshold(-1) // bulk load, then one explicit Seal pass
	mgr := txn.NewManager()
	tx := mgr.Begin()
	rowsPer := totalRows / sources
	if rowsPer < 1 {
		rowsPer = 1
	}
	for i := 0; i < totalRows; i++ {
		val := "idle"
		if i%3 == 0 {
			val = "busy"
		}
		if err := tx.InsertRow(tbl, storage.NewRow([]types.Value{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("src-%05d", i/rowsPer)),
			types.NewString(val),
			types.NewFloat(float64(i%1000) / 1000), // cyclic: unprunable
			types.NewTimeNanos(int64(i) * 1e9),     // monotonic: prunable
		}, 0)); err != nil {
			return nil, err
		}
	}
	tx.Commit()
	tbl.SetSealThreshold(segmentSize)
	tbl.Seal()
	return &StorageDataset{Table: tbl, Mgr: mgr, Rows: totalRows, Sources: sources}, nil
}

// storageScenario pairs a BatchScan that reads every segment (no
// SegmentFilter: pruning off) with the same scan consulting the zone maps
// first, for one predicate, capturing the pruning side's counters.
type storageScenario struct {
	PairScenario
	Predicate string
	Pruned    *int
	Scanned   *int
}

func (d *StorageDataset) scenario(name, pred string) (*storageScenario, error) {
	layout := exec.NewLayout([]exec.Binding{{Name: "t", Table: d.Table}})
	e, err := sqlparser.ParseExpr(pred)
	if err != nil {
		return nil, err
	}
	k, _, _, err := exec.CompileKernel(e, layout)
	if err != nil {
		return nil, err
	}
	segf, err := exec.CompileSegmentFilter(e, layout, 0, d.Table.Schema.NumColumns())
	if err != nil {
		return nil, err
	}
	snap := d.Mgr.ReadSnapshot()
	sc := &storageScenario{Predicate: pred, Pruned: new(int), Scanned: new(int)}
	sc.Name = name
	sc.InputRows = d.Rows
	sc.Base = func() (int, error) {
		return countBatches(&exec.BatchScan{Table: d.Table, Snap: snap, Kernel: k})
	}
	sc.Opt = func() (int, error) {
		scan := &exec.BatchScan{Table: d.Table, Snap: snap, Kernel: k, SegFilter: segf}
		n, err := countBatches(scan)
		*sc.Pruned, *sc.Scanned = scan.PrunedSegments, scan.ScannedSegments
		return n, err
	}
	return sc, nil
}

// StorageScenarios builds the measured set:
//
//   - source-probe: one source out of many — zone-map min/max plus the
//     distinct-source set prune almost every segment; the selective scan
//     the recency generator issues per contributing source.
//   - source-set: IN over a few sources — the source-set disjointness
//     prune (recency short-circuit) with a multi-member probe.
//   - time-range: a 5% trailing time window — pure min/max range pruning
//     over the monotonic timestamp column.
//   - half-filter: ~50% selective cyclic FLOAT predicate — zone maps
//     cannot prune a segment, so the cell prices consulting them for
//     nothing.
func (d *StorageDataset) StorageScenarios() ([]*storageScenario, error) {
	mid := fmt.Sprintf("src-%05d", d.Sources/2)
	set := fmt.Sprintf("'src-%05d', 'src-%05d', 'src-%05d'",
		d.Sources/10, d.Sources/2, d.Sources-1) // three spread-out sources
	cutoff := types.NewTimeNanos(int64(d.Rows) * 95 / 100 * 1e9)
	specs := []struct{ name, pred string }{
		{"source-probe", fmt.Sprintf("mach_id = '%s'", mid)},
		{"source-set", fmt.Sprintf("mach_id IN (%s)", set)},
		{"time-range", fmt.Sprintf("event_time > '%s'", cutoff.String())},
		{"half-filter", "load < 0.5"},
	}
	out := make([]*storageScenario, 0, len(specs))
	for _, s := range specs {
		sc, err := d.scenario(s.name, s.pred)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out = append(out, sc)
	}
	return out, nil
}

// RunStorageBench measures every scenario over a fully sealed clustered
// dataset and assembles the report.
//
//tracvet:ignore catbump see BuildStorageDataset: the dataset table never enters a catalog
func RunStorageBench(totalRows, sources, segmentSize, iterations int, progress func(string)) (*StorageBenchReport, error) {
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
	scenarios, err := d.StorageScenarios()
	if err != nil {
		return nil, err
	}
	report := &StorageBenchReport{
		TotalRows: totalRows, Sources: sources, SegmentSize: segmentSize,
		Segments: d.Table.NumSegments(), Iterations: iterations,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, sc := range scenarios {
		res, err := MeasurePair(&sc.PairScenario, iterations)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		r := StorageBenchResult{
			Name: res.Name, Predicate: sc.Predicate,
			InputRows: res.InputRows, OutputRows: res.OutputRows,
			PrunedSegments: *sc.Pruned, ScannedSegments: *sc.Scanned,
			UnprunedNsPerRow: res.BaseNsPerRow, PrunedNsPerRow: res.OptNsPerRow,
			Speedup: res.Speedup,
		}
		if progress != nil {
			progress(fmt.Sprintf("%-14s unpruned %8.1f ns/row   pruned %8.1f ns/row   speedup %6.2fx   segments %d pruned / %d scanned",
				r.Name, r.UnprunedNsPerRow, r.PrunedNsPerRow, r.Speedup, r.PrunedSegments, r.ScannedSegments))
		}
		report.Results = append(report.Results, r)
	}
	return report, nil
}

// MarshalStorageBench renders the report as the BENCH_storage.json document.
func MarshalStorageBench(r *StorageBenchReport) ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
