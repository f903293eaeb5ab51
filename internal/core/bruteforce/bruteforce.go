// Package bruteforce computes the exact set of relevant data sources S(Q)
// by direct application of the paper's Definitions 1 and 2: a source s is
// relevant via R_i when some potential tuple over R_i's column domains,
// tagged with s, together with actual tuples of the other relations,
// satisfies the query predicates.
//
// This is exponential in the number of columns and is used exactly the way
// the paper used it: over specially designed test schemas with small finite
// domains, to measure the false positive rate of the generated recency
// queries. It is not part of the production reporting path.
package bruteforce

import (
	"fmt"
	"sort"

	"trac/internal/core/classify"
	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// enumLimit caps the number of potential tuples per relation so a
// mis-configured schema fails fast instead of running forever.
const enumLimit = 1 << 22

// Options mirrors recgen.Options for locating the Heartbeat table.
type Options struct {
	HeartbeatTable string
	SidColumn      string
}

func (o Options) withDefaults() Options {
	if o.HeartbeatTable == "" {
		o.HeartbeatTable = "Heartbeat"
	}
	if o.SidColumn == "" {
		o.SidColumn = "sid"
	}
	return o
}

// Relevant computes S(Q) exactly. Every regular column of every monitored
// relation in the query must have a finite domain. The source domain D_s is
// the set of sids visible in the Heartbeat table under the snapshot.
func Relevant(sel *sqlparser.SelectStmt, cat *storage.Catalog, snap txn.Snapshot, opts Options) ([]string, error) {
	opts = opts.withDefaults()
	if len(sel.Union) > 0 {
		return nil, fmt.Errorf("bruteforce: UNION queries unsupported")
	}
	hb, err := cat.Get(opts.HeartbeatTable)
	if err != nil {
		return nil, err
	}
	sidIdx := hb.Schema.ColumnIndex(opts.SidColumn)
	if sidIdx < 0 {
		return nil, fmt.Errorf("bruteforce: heartbeat lacks column %q", opts.SidColumn)
	}
	var sources []types.Value
	for _, r := range hb.Rows() {
		if snap.Visible(r) {
			sources = append(sources, r.Values[sidIdx])
		}
	}

	// Bind relations.
	bindings := make([]exec.Binding, len(sel.From))
	tables := make([]*storage.Table, len(sel.From))
	for i, ref := range sel.From {
		tbl, err := cat.Get(ref.Name)
		if err != nil {
			return nil, err
		}
		tables[i] = tbl
		bindings[i] = exec.Binding{Name: ref.Binding(), Table: tbl}
	}
	layout := exec.NewLayout(bindings)

	// §3.4: candidate potential tuples are restricted to legal instances,
	// those that make no CHECK constraint FALSE — what the engine admits.
	rels := make([]classify.Relation, len(sel.From))
	for i, ref := range sel.From {
		rels[i] = classify.Relation{Binding: ref.Binding(), Table: tables[i]}
	}
	var pred legal
	if sel.Where != nil {
		if pred.where, err = exec.Compile(sel.Where, layout); err != nil {
			return nil, err
		}
	}
	for _, c := range classify.Checks(rels) {
		ev, err := exec.Compile(c, layout)
		if err != nil {
			return nil, err
		}
		pred.checks = append(pred.checks, ev)
	}

	relevant := make(map[string]bool)
	for i := range tables {
		if tables[i].Schema.SourceColumn < 0 {
			continue // unmonitored: contributes no sources
		}
		if err := relevantVia(layout, tables, i, sources, pred, snap, relevant); err != nil {
			return nil, err
		}
	}

	out := make([]string, 0, len(relevant))
	for s := range relevant {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}

// relevantVia adds to `relevant` every source that is relevant via relation
// index i (Definition 2).
func relevantVia(layout *exec.Layout, tables []*storage.Table, i int,
	sources []types.Value, pred legal, snap txn.Snapshot, relevant map[string]bool) error {

	target := tables[i]
	schema := target.Schema
	width := layout.Width()
	offset := layout.Bindings[i].Offset

	// Enumerate the regular columns' domains, and NULL, which every column
	// can hold.
	regularDomains := make([][]types.Value, 0, schema.NumColumns())
	regularCols := make([]int, 0, schema.NumColumns())
	count := 1
	for ci, col := range schema.Columns {
		if ci == schema.SourceColumn {
			continue
		}
		vals, ok := col.Domain.Enumerate()
		if !ok {
			return fmt.Errorf("bruteforce: column %s.%s has an infinite domain", target.Name, col.Name)
		}
		vals = append(vals, types.Null)
		regularDomains = append(regularDomains, vals)
		regularCols = append(regularCols, ci)
		count *= len(vals)
		if count > enumLimit {
			return fmt.Errorf("bruteforce: potential-tuple space of %s exceeds %d", target.Name, enumLimit)
		}
	}

	// Materialize the cross product of the OTHER relations' actual visible
	// rows as partially filled joined tuples.
	partials := [][]types.Value{make([]types.Value, width)}
	for j, b := range layout.Bindings {
		if j == i {
			continue
		}
		var rows []*storage.Row
		for _, r := range b.Table.Rows() {
			if snap.Visible(r) {
				rows = append(rows, r)
			}
		}
		next := make([][]types.Value, 0, len(partials)*len(rows))
		for _, p := range partials {
			for _, r := range rows {
				t := make([]types.Value, width)
				copy(t, p)
				copy(t[b.Offset:b.Offset+len(r.Values)], r.Values)
				next = append(next, t)
			}
		}
		partials = next
		if len(partials) == 0 {
			return nil // an empty other relation: nothing relevant via R_i
		}
		if len(partials) > enumLimit {
			return fmt.Errorf("bruteforce: join space exceeds %d", enumLimit)
		}
	}

	// For each source, search for a witnessing potential tuple.
	counters := make([]int, len(regularDomains))
	for _, src := range sources {
		key := src.String()
		if relevant[key] {
			continue
		}
		for i := range counters {
			counters[i] = 0
		}
		found := false
	enumeration:
		for {
			// Fill the candidate tuple region.
			for _, p := range partials {
				p[offset+schema.SourceColumn] = src
				for k, ci := range regularCols {
					p[offset+ci] = regularDomains[k][counters[k]]
				}
				ok, err := pred.holds(p)
				if err != nil {
					return err
				}
				if ok {
					found = true
					break enumeration
				}
			}
			// Advance the odometer.
			k := 0
			for ; k < len(counters); k++ {
				counters[k]++
				if counters[k] < len(regularDomains[k]) {
					break
				}
				counters[k] = 0
			}
			if k == len(counters) {
				break
			}
		}
		if found {
			relevant[key] = true
		}
	}
	return nil
}

// legal is the query predicate over a joined tuple: WHERE is TRUE and no
// CHECK constraint is FALSE.
type legal struct {
	where  exec.Evaluator
	checks []exec.Evaluator
}

func (l legal) holds(row []types.Value) (bool, error) {
	for _, c := range l.checks {
		v, err := c(row)
		if err != nil {
			return false, err
		}
		if v.Kind() == types.KindBool && !v.Bool() {
			return false, nil
		}
	}
	return exec.EvalPredicate(l.where, row)
}
