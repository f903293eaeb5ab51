package planner

import (
	"slices"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// Probe is one indexed column a WHERE clause pins to literal keys.
type Probe struct {
	Col  int
	Keys []types.Value
}

// EqualityProbes returns, in column order, every indexed column of tbl that
// an AND-level conjunct of a single-table WHERE pins to a point set (`=`,
// `IN` over literals), with its keys. UPDATE/DELETE read the probe whose chains are
// shortest, so `UPDATE S ... WHERE schedMachineId = 'm' AND jobId = 'j'`
// reads the job's version, not the machine's history.
func EqualityProbes(tbl *storage.Table, where sqlparser.Expr) []Probe {
	if where == nil {
		return nil
	}
	reads := readAll(tbl, tbl.Name, splitAnd(where))
	cols := tbl.IndexedColumns()
	slices.Sort(cols)
	var probes []Probe
	for _, col := range cols {
		if keys := equalityKeys(reads, col); keys != nil {
			probes = append(probes, Probe{Col: col, Keys: keys})
		}
	}
	return probes
}
