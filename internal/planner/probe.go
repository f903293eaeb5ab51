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
// an AND-level conjunct of a single-table WHERE pins with = or IN over
// literals, with its keys. UPDATE/DELETE read the probe whose chains are
// shortest, so `UPDATE S ... WHERE schedMachineId = 'm' AND jobId = 'j'`
// reads the job's version, not the machine's history.
func EqualityProbes(tbl *storage.Table, where sqlparser.Expr) []Probe {
	if where == nil {
		return nil
	}
	conjs := splitAnd(where)
	cols := tbl.IndexedColumns()
	slices.Sort(cols)
	var probes []Probe
	for _, col := range cols {
		c := tbl.Schema.Columns[col]
		if keys := equalityKeys(conjs, tbl.Name, c.Name, c.Kind); keys != nil {
			probes = append(probes, Probe{Col: col, Keys: keys})
		}
	}
	return probes
}
