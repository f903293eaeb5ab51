package engine

import (
	"math/rand"
	"strings"

	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// ANALYZE parameters: sample size bounds memory and time on 10M-row tables;
// 64 equi-depth buckets resolve range selectivities to ~1.5%.
const (
	analyzeSampleSize = 20_000
	analyzeBuckets    = 64
)

// execAnalyze recomputes planner statistics for one table or all tables.
func (db *DB) execAnalyze(s *sqlparser.AnalyzeStmt) error {
	var names []string
	if s.Table != "" {
		names = []string{s.Table}
	} else {
		names = db.catalog.Names()
	}
	snap := db.Snapshot()
	for _, name := range names {
		tbl, err := db.catalog.Get(name)
		if err != nil {
			return err
		}
		analyzeTable(tbl, snap)
	}
	// Statistics shape access paths: a plan kept for reuse is made again.
	db.catalog.BumpVersion()
	return nil
}

// analyzeTable samples the visible rows and publishes per-column statistics.
// Column min/max comes from sealed-segment zone maps when segments cover the
// whole heap (exact, zero value passes); otherwise from the sample.
func analyzeTable(tbl *storage.Table, snap interface{ Visible(*storage.Row) bool }) {
	heap := tbl.Snap()
	all := heap.Rows
	covered := len(all) > 0 && heap.Sealed == len(all)
	visible := make([]*storage.Row, 0, len(all))
	for _, r := range all {
		if snap.Visible(r) {
			visible = append(visible, r)
		}
	}
	rowCount := len(visible)

	// Seeded reservoir sampling: reproducible, and unlike stride sampling
	// it does not alias against periodic patterns in the load order.
	sample := visible
	if rowCount > analyzeSampleSize {
		rng := rand.New(rand.NewSource(20060912))
		sample = make([]*storage.Row, analyzeSampleSize)
		copy(sample, visible[:analyzeSampleSize])
		for i := analyzeSampleSize; i < rowCount; i++ {
			if j := rng.Intn(i + 1); j < analyzeSampleSize {
				sample[j] = visible[i]
			}
		}
	}

	nCols := tbl.Schema.NumColumns()
	stats := &storage.TableStats{RowCount: rowCount, Columns: make([]storage.ColumnStats, nCols)}
	for ci := 0; ci < nCols; ci++ {
		var vals []types.Value
		distinct := make(map[string]struct{})
		nulls := 0
		var sb strings.Builder
		for _, r := range sample {
			v := r.Values[ci]
			if v.IsNull() {
				nulls++
				continue
			}
			vals = append(vals, v)
			sb.Reset()
			exec.EncodeKey(&sb, v)
			distinct[sb.String()] = struct{}{}
		}
		cs := storage.ColumnStats{NonNull: len(vals), Nulls: nulls}
		d := len(distinct)
		switch {
		case len(sample) == rowCount:
			cs.Distinct = d // exact
		case d > len(sample)/2:
			// Mostly unique in the sample: scale to the table (key-like).
			if len(sample) > 0 {
				cs.Distinct = d * rowCount / len(sample)
			}
		default:
			// Duplicate-heavy: the sample has likely seen most values.
			cs.Distinct = d
		}
		cs.Histogram = storage.BuildHistogram(vals, analyzeBuckets)
		if covered {
			if mn, mx, ok := storage.MinMaxFromZones(heap.Segments, ci); ok {
				cs.Min, cs.Max, cs.MinMaxExact = mn, mx, true
			}
		}
		if !cs.MinMaxExact {
			for _, v := range vals {
				if cs.Min.IsNull() || types.Less(v, cs.Min) {
					cs.Min = v
				}
				if cs.Max.IsNull() || types.Less(cs.Max, v) {
					cs.Max = v
				}
			}
		}
		stats.Columns[ci] = cs
	}
	tbl.SetStats(stats)
}
