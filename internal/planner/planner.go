// Package planner turns parsed SELECT statements into physical operator
// trees. It performs name binding, predicate pushdown, index selection on
// equality/IN/range/LIKE-prefix predicates, greedy join ordering with hash
// joins for equijoins, and handles aggregation, DISTINCT, ORDER BY, LIMIT
// and UNION. The whole tree runs batch-at-a-time (exec.BatchOperator), from
// the scans to the last LIMIT; tuples are minted only where a result leaves
// as rows (exec.Drain).
//
// The recency queries the TRAC core generates are ordinary SELECTs, so they
// flow through this same planner — matching the paper's prototype, where
// generated recency queries were executed by PostgreSQL like any other SQL.
package planner

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"

	"trac/internal/exec"
	"trac/internal/lru"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// DefaultParallelThreshold is the heap-version count below which a
// sequential scan is never parallelized: at small cardinalities the
// goroutine fan-out and channel hand-off cost more than the scan itself.
const DefaultParallelThreshold = 50_000

// Planner plans statements against a catalog, keeping the operator tree of
// each statement it planned for the statement's next plan (template.go).
type Planner struct {
	Catalog *storage.Catalog
	// ParallelThreshold overrides DefaultParallelThreshold when > 0
	// (tests and tuning).
	ParallelThreshold int
	// MaxParallel caps the per-scan worker count; <= 0 means GOMAXPROCS.
	MaxParallel int

	templates    *lru.Cache[*sqlparser.SelectStmt, *slot]
	hits, misses atomic.Uint64
}

// New returns a planner over the catalog.
func New(catalog *storage.Catalog) *Planner {
	return &Planner{Catalog: catalog, templates: lru.New[*sqlparser.SelectStmt, *slot](templateSlots)}
}

// parallelWorkers decides the parallel degree for a heap scan over the given
// estimated input cardinality: one worker per threshold's worth of rows,
// capped at MaxParallel/GOMAXPROCS, and 1 (no parallelism) below the
// threshold or on single-CPU configurations.
func (p *Planner) parallelWorkers(inputRows float64) int {
	threshold := p.ParallelThreshold
	if threshold <= 0 {
		threshold = DefaultParallelThreshold
	}
	max := p.MaxParallel
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	if max <= 1 || inputRows < float64(threshold) {
		return 1
	}
	w := int(inputRows / float64(threshold))
	if w < 2 {
		w = 2
	}
	if w > max {
		w = max
	}
	return w
}

// Plan is an executable plan plus its output description. Its Root runs the
// statement's tree; closing the Root hands the tree back to the planner.
type Plan struct {
	Root    exec.BatchOperator
	Columns []string
	// Notes records planning decisions (access paths, join order) for
	// EXPLAIN-style diagnostics and for the ablation benchmarks, one line
	// each. Describe renders them — planning formats nothing — and leaves
	// them here.
	Notes []string
	// Parallel is the maximum parallel worker degree anywhere in the plan
	// (1 = fully single-threaded).
	Parallel int
	// Vectorized is true: every plan executes batch-at-a-time. It stays for
	// the callers that report it.
	Vectorized bool

	t              *template
	opened, closed bool
	runs           []ran // what the run left, captured when Root closed
}

func (p *Planner) planUnion(sel *sqlparser.SelectStmt, t *template) (exec.BatchOperator, []string, error) {
	stmts := make([]*sqlparser.SelectStmt, 0, 1+len(sel.Union))
	head := *sel
	head.Union = nil
	head.OrderBy = nil
	head.Limit = nil
	stmts = append(stmts, &head)
	stmts = append(stmts, sel.Union...)

	blocks := make([]*block, len(stmts))
	for i, st := range stmts {
		if len(st.From) == 0 {
			continue // constant block: planned on its own below
		}
		b, err := p.bindBlock(st)
		if err != nil {
			return nil, nil, err
		}
		blocks[i] = b
	}

	var root exec.BatchOperator
	var columns []string
	if u, ok := unionAnchors(blocks); ok {
		// Every block draws its output from the same relation: one anchor
		// scan, one arm per block, each anchor row emitted once; the
		// DISTINCT of the tail is the UNION's set semantics.
		columns = blocks[0].columns
		t.notes = append(t.notes, note{kind: noteCount, text: "anchored union: %d arms, 1 anchor scan", n: len(blocks)})
		var err error
		if root, err = p.planAnchored(blocks, u, t); err != nil {
			return nil, nil, err
		}
	} else {
		var children []exec.BatchOperator
		for i, st := range stmts {
			t.notes = append(t.notes, note{kind: noteCount, text: "union block %d:", n: i})
			var child exec.BatchOperator
			var cols []string
			var err error
			if blocks[i] == nil {
				child, cols, err = p.planConstant(st, t)
			} else {
				child, err = p.planBound(blocks[i], t)
				cols = blocks[i].columns
			}
			if err != nil {
				return nil, nil, err
			}
			if i == 0 {
				columns = cols
			} else if len(cols) != len(columns) {
				return nil, nil, fmt.Errorf("planner: UNION blocks have different arity (%d vs %d)",
					len(columns), len(cols))
			}
			children = append(children, child)
		}
		root = &exec.BatchUnion{Children: children}
	}
	root, err := ApplyOutputOrderLimit(root, sel, columns)
	if err != nil {
		return nil, nil, err
	}
	return root, columns, nil
}

// ApplyOutputOrderLimit handles ORDER BY/LIMIT over a plan whose tuples are
// already output-shaped (a UNION, here or gathered across shards). ORDER BY
// may reference output columns by name or 1-based position.
func ApplyOutputOrderLimit(root exec.BatchOperator, sel *sqlparser.SelectStmt, columns []string) (exec.BatchOperator, error) {
	if len(sel.OrderBy) > 0 {
		var keys []exec.SortKey
		for _, o := range sel.OrderBy {
			idx := -1
			switch e := o.Expr.(type) {
			case *sqlparser.Literal:
				if e.Val.Kind() == types.KindInt {
					idx = int(e.Val.Int()) - 1
				}
			case *sqlparser.ColumnRef:
				for i, c := range columns {
					if strings.EqualFold(c, e.Column) {
						idx = i
						break
					}
				}
			}
			if idx < 0 || idx >= len(columns) {
				return nil, fmt.Errorf("planner: ORDER BY over a UNION must reference an output column")
			}
			i := idx
			keys = append(keys, exec.SortKey{
				Expr: func(row []types.Value) (types.Value, error) { return row[i], nil },
				Desc: o.Desc,
			})
		}
		root = &exec.BatchSort{Child: root, Keys: keys}
	}
	if sel.Limit != nil {
		root = &exec.BatchLimit{Child: root, N: *sel.Limit}
	}
	return root, nil
}

// conjunct is one AND-connected predicate with the set of bindings it
// references.
type conjunct struct {
	expr     sqlparser.Expr
	bindings map[int]bool
	cols     colSet // the tuple offsets it reads
	used     bool
}

// block is one SELECT block after name binding: the joined layout, the WHERE
// clause split into conjuncts attributed to their bindings, and the
// star-expanded select list.
type block struct {
	sel       *sqlparser.SelectStmt
	layout    *exec.Layout
	conjuncts []*conjunct
	items     []sqlparser.Expr
	columns   []string
	grouped   bool // Grouped
	// tail is what the block reads after its WHERE clause: the select list,
	// GROUP BY, HAVING and ORDER BY. scratch is a spare set of the same
	// width for whoever plans the block.
	tail, scratch colSet
}

// colSet marks tuple offsets of a layout: the required-column pass. A scan
// carries, and a join gathers, only the columns some later stage reads —
// the block's tail plus every conjunct not yet placed (see scanCols.need).
type colSet []bool

// addRefs marks every column the expression reads. A name that does not
// resolve is a select-list alias (ORDER BY, GROUP BY); the expression it
// stands for is in the select list and marked from there.
func (cs colSet) addRefs(e sqlparser.Expr, layout *exec.Layout) {
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if cr, ok := x.(*sqlparser.ColumnRef); ok {
			if off, err := layout.Resolve(cr.Table, cr.Column); err == nil {
				cs[off] = true
			}
		}
		return true
	})
}

// bareCol returns the tuple offset of an expression that is a bare column
// reference and -1 for any other: the vector a batch operator reads directly
// instead of evaluating the expression over a boxed tuple.
func bareCol(e sqlparser.Expr, layout *exec.Layout) int {
	if cr, ok := e.(*sqlparser.ColumnRef); ok {
		if off, err := layout.Resolve(cr.Table, cr.Column); err == nil {
			return off
		}
	}
	return -1
}

// bareCols is bareCol over a list.
func bareCols(exprs []sqlparser.Expr, layout *exec.Layout) []int {
	cols := make([]int, len(exprs))
	for i, e := range exprs {
		cols[i] = bareCol(e, layout)
	}
	return cols
}

// bindBlock resolves a block's FROM list, WHERE conjuncts and select items.
func (p *Planner) bindBlock(sel *sqlparser.SelectStmt) (*block, error) {
	bindings := make([]exec.Binding, 0, len(sel.From))
	seen := make(map[string]bool)
	for _, ref := range sel.From {
		tbl, err := p.Catalog.Get(ref.Name)
		if err != nil {
			return nil, err
		}
		name := strings.ToLower(ref.Binding())
		if seen[name] {
			return nil, fmt.Errorf("planner: duplicate table binding %q", ref.Binding())
		}
		seen[name] = true
		bindings = append(bindings, exec.Binding{Name: ref.Binding(), Table: tbl})
	}
	b := &block{sel: sel, layout: exec.NewLayout(bindings)}

	// Split WHERE into conjuncts and attribute each to its bindings. The
	// column sets of the conjuncts and the tail are carved from one slab.
	exprs := splitAnd(sel.Where)
	width := b.layout.Width()
	slab := make(colSet, (len(exprs)+2)*width)
	for i, e := range exprs {
		refs, err := p.bindingsOf(e, b.layout)
		if err != nil {
			return nil, err
		}
		cols := slab[i*width : (i+1)*width : (i+1)*width]
		cols.addRefs(e, b.layout)
		b.conjuncts = append(b.conjuncts, &conjunct{expr: e, bindings: refs, cols: cols})
	}
	b.tail = slab[len(exprs)*width : (len(exprs)+1)*width]
	b.scratch = slab[(len(exprs)+1)*width:]

	// Select list: aggregates vs plain projection.
	var err error
	b.items, b.columns, err = p.expandItems(sel, b.layout)
	if err != nil {
		return nil, err
	}
	b.grouped = Grouped(sel)
	for _, e := range b.items {
		b.tail.addRefs(e, b.layout)
	}
	for _, e := range sel.GroupBy {
		b.tail.addRefs(e, b.layout)
	}
	if sel.Having != nil {
		b.tail.addRefs(sel.Having, b.layout)
	}
	for _, o := range sel.OrderBy {
		b.tail.addRefs(o.Expr, b.layout)
	}
	return b, nil
}

func (p *Planner) planBlock(sel *sqlparser.SelectStmt, t *template) (exec.BatchOperator, []string, error) {
	// SELECT with no FROM: evaluate items against an empty tuple.
	if len(sel.From) == 0 {
		return p.planConstant(sel, t)
	}
	b, err := p.bindBlock(sel)
	if err != nil {
		return nil, nil, err
	}
	root, err := p.planBound(b, t)
	return root, b.columns, err
}

// planBound plans a bound block: a semi-join when the block is
// DISTINCT-anchored (see anchorOf), otherwise the join tree over every
// binding; then the aggregation or projection tail.
func (p *Planner) planBound(b *block, t *template) (exec.BatchOperator, error) {
	sel, layout := b.sel, b.layout
	if a := anchorOf(b); a >= 0 {
		return p.planAnchored([]*block{b}, &anchoredUnion{anchors: []int{a}}, t)
	}

	all := make([]int, len(layout.Bindings))
	for i := range all {
		all[i] = i
	}
	// LIMIT without ORDER BY over one table stops after the first surviving
	// rows: a parallel scan would spin up workers to throw their output away.
	serial := len(all) == 1 && sel.Limit != nil && len(sel.OrderBy) == 0 && !b.grouped
	root, err := p.joinTree(layout, all, b.conjuncts, b.tail, t, serial)
	if err != nil {
		return nil, err
	}
	// Defensive: any conjunct not yet applied.
	joinedAll := make(map[int]bool, len(layout.Bindings))
	for i := range layout.Bindings {
		joinedAll[i] = true
	}
	root, err = p.applyResidualFilter(root, b.conjuncts, layout, joinedAll)
	if err != nil {
		return nil, err
	}

	if b.grouped {
		agg, tail, err := p.aggregate(b, root, t)
		if err != nil || t.groups {
			return agg, err
		}
		return tail.Over(agg), nil
	}
	return p.finishPlain(b, root, layout)
}

// finishPlain builds the non-aggregate tail over root, whose tuples have the
// given layout: the sort, which reads the source tuples (aliases and 1-based
// positions resolve to their select-list expressions), the projection,
// DISTINCT, which keeps the first of equal tuples in sorted order, and LIMIT.
func (p *Planner) finishPlain(b *block, root exec.BatchOperator, layout *exec.Layout) (exec.BatchOperator, error) {
	sel, items := b.sel, b.items
	if len(sel.OrderBy) > 0 {
		keys := make([]exec.SortKey, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			oe, err := orderExpr(sel, items, o.Expr)
			if err != nil {
				return nil, err
			}
			ev, err := exec.Compile(oe, layout)
			if err != nil {
				return nil, err
			}
			keys[i] = exec.SortKey{Expr: ev, Desc: o.Desc}
		}
		root = &exec.BatchSort{Child: root, Keys: keys}
	}
	evals := make([]exec.Evaluator, len(items))
	for i, it := range items {
		var err error
		evals[i], err = exec.Compile(it, layout)
		if err != nil {
			return nil, err
		}
	}
	root = &exec.BatchProject{Child: root, Exprs: evals, Cols: bareCols(items, layout)}
	if sel.Distinct {
		root = &exec.BatchDistinct{Child: root}
	}
	if sel.Limit != nil {
		root = &exec.BatchLimit{Child: root, N: *sel.Limit}
	}
	return root, nil
}

// orderExpr resolves one ORDER BY expression of a block: a 1-based position
// or a bare select-list alias stands for that item's expression; anything
// else is itself.
func orderExpr(sel *sqlparser.SelectStmt, items []sqlparser.Expr, oe sqlparser.Expr) (sqlparser.Expr, error) {
	if lit, ok := oe.(*sqlparser.Literal); ok && lit.Val.Kind() == types.KindInt {
		pos := int(lit.Val.Int()) - 1
		if pos < 0 || pos >= len(items) {
			return nil, fmt.Errorf("planner: ORDER BY position %d out of range", pos+1)
		}
		return items[pos], nil
	}
	if cr, ok := oe.(*sqlparser.ColumnRef); ok && cr.Table == "" {
		for i, it := range sel.Items {
			if strings.EqualFold(it.Alias, cr.Column) {
				return items[i], nil
			}
		}
	}
	return oe, nil
}

// joinTree plans the scans and joins for a subset of bindings: access path
// per member (never a parallel scan when serial is set), greedy
// equijoin-first join ordering, residual filters as soon as their bindings
// are joined. tail is what the consumer of the tree reads off its tuples;
// with the conjuncts still unplaced at each stage it decides which columns
// a scan carries and a join gathers.
func (p *Planner) joinTree(layout *exec.Layout, members []int, conjuncts []*conjunct, tail colSet, t *template, serial bool) (exec.BatchOperator, error) {
	type node struct {
		op  exec.BatchOperator
		est float64
	}
	nodes := make(map[int]*node, len(members))
	for _, i := range members {
		var mine []*conjunct
		for _, c := range conjuncts {
			if onlyBinding(c.bindings, i) && !c.used {
				mine = append(mine, c)
			}
		}
		op, est, n, err := p.accessPath(layout, i, mine, scanCols{tail, conjuncts, mine}, serial)
		if err != nil {
			return nil, err
		}
		nodes[i] = &node{op: op, est: est}
		t.notes = append(t.notes, n)
	}

	joined := make(map[int]bool, len(members))
	var root exec.BatchOperator
	var rootEst float64
	{
		best := -1
		for _, i := range members {
			if best < 0 || nodes[i].est < nodes[best].est {
				best = i
			}
		}
		root = nodes[best].op
		rootEst = nodes[best].est
		joined[best] = true
	}
	root, err := p.applyResidualFilter(root, conjuncts, layout, joined)
	if err != nil {
		return nil, err
	}
	for len(joined) < len(members) {
		// Find candidate: prefer equijoin-connected, then cheapest.
		cand, isEqui := -1, false
		for _, i := range members {
			if joined[i] {
				continue
			}
			connected := p.equijoinKeys(conjuncts, layout, joined, i) != nil
			switch {
			case connected && (!isEqui || nodes[i].est < nodes[cand].est):
				cand, isEqui = i, true
			case !connected && !isEqui && (cand < 0 || nodes[i].est < nodes[cand].est):
				cand = i
			}
		}
		n := nodes[cand]
		if keys := p.equijoinKeys(conjuncts, layout, joined, cand); keys != nil {
			var buildKeys, probeKeys []exec.Evaluator
			var buildCols, probeCols []int
			for _, k := range keys {
				newSide, err := exec.Compile(k.newExpr, layout)
				if err != nil {
					return nil, err
				}
				curSide, err := exec.Compile(k.curExpr, layout)
				if err != nil {
					return nil, err
				}
				k.conj.used = true
				// Build on the smaller input.
				if n.est <= rootEst {
					buildKeys = append(buildKeys, newSide)
					probeKeys = append(probeKeys, curSide)
					buildCols = append(buildCols, bareCol(k.newExpr, layout))
					probeCols = append(probeCols, bareCol(k.curExpr, layout))
				} else {
					buildKeys = append(buildKeys, curSide)
					probeKeys = append(probeKeys, newSide)
					buildCols = append(buildCols, bareCol(k.curExpr, layout))
					probeCols = append(probeCols, bareCol(k.newExpr, layout))
				}
			}
			j := joinSpec{
				buildKeys: buildKeys, probeKeys: probeKeys, buildCols: buildCols, probeCols: probeCols,
				cand: cand, candBuilds: n.est <= rootEst,
				after: scanCols{tail: tail, conjuncts: conjuncts},
			}
			if j.candBuilds {
				j.build, j.probe = n.op, root
			} else {
				j.build, j.probe = root, n.op
			}
			root = p.makeHashJoin(j, layout, joined, t,
				note{kind: noteHashJoin, name: layout.Bindings[cand].Name, est: n.est, est2: rootEst, flag: j.candBuilds})
			rootEst = rootEst * n.est / 10 // crude equijoin output estimate
		} else {
			// No equality ties cand to what is joined: pair every tuple, and
			// gather what the plan reads above the join, as a hash join does.
			joined[cand] = true
			need := scanCols{tail: tail, conjuncts: conjuncts}.need(func(off int) bool { return joined[layout.BindingOf(off)] })
			root = &exec.BatchNestedLoopJoin{Outer: root, Inner: n.op, Need: need}
			t.notes = append(t.notes, note{kind: noteNestedLoop, name: layout.Bindings[cand].Name, est: n.est})
			rootEst = rootEst * n.est
		}
		// Apply any now-eligible residual conjuncts.
		root, err = p.applyResidualFilter(root, conjuncts, layout, joined)
		if err != nil {
			return nil, err
		}
	}
	return root, nil
}

// scanCols is what the required-column pass knows at one point of planning:
// the consumer's tail, the block's conjuncts (the unplaced ones count) and,
// for a scan, its own pushed-down conjuncts. A scan asks it for the columns
// it carries, a hash join for the columns it gathers.
type scanCols struct {
	tail      colSet
	conjuncts []*conjunct
	own       []*conjunct
}

// need lists, in ascending order, the tuple offsets the caller outputs (in)
// that the plan still reads at some stage: the tail, the columns of every
// conjunct not yet placed, and those of own (placed, but evaluated by the
// scan itself).
func (sc scanCols) need(in func(off int) bool) []int {
	need := make([]int, 0, len(sc.tail)) // non-nil: nil would mean every column
	for off, on := range sc.tail {
		for _, c := range sc.conjuncts {
			on = on || (!c.used && c.cols[off])
		}
		for _, c := range sc.own {
			on = on || c.cols[off]
		}
		if on && in(off) {
			need = append(need, off)
		}
	}
	return need
}

// joinSpec is one planned hash join: both inputs and their compiled keys,
// the key columns on either side (bareCol), and what the columnar join needs to
// work out the columns it gathers — the candidate binding and whether it is
// the build side, and the pass's state now that the key conjuncts are
// placed.
type joinSpec struct {
	build, probe         exec.BatchOperator
	buildKeys, probeKeys []exec.Evaluator
	buildCols, probeCols []int
	cand                 int
	candBuilds           bool
	after                scanCols
}

// makeHashJoin builds the columnar hash join and records its note, n with
// the probe-side columns it reads added. The join collects the build side as
// a batch, reads keys off the key vectors and gathers only the columns the
// plan reads above it.
func (p *Planner) makeHashJoin(j joinSpec, layout *exec.Layout, joined map[int]bool, t *template, n note) exec.BatchOperator {
	// What the plan reads above this join, of the bindings it outputs.
	joined[j.cand] = true
	need := j.after.need(func(off int) bool { return joined[layout.BindingOf(off)] })
	op := &exec.BatchHashJoin{
		Build: j.build, Probe: j.probe, BuildKeys: j.buildKeys, ProbeKeys: j.probeKeys,
		BuildCols: j.buildCols, ProbeCols: j.probeCols, Need: need,
	}
	// The probe-side columns the join touches: bare keys, and what it
	// gathers for the plan above.
	var reads []int
	for _, off := range op.ProbeCols {
		if off >= 0 {
			reads = append(reads, off)
		}
	}
	for _, off := range need {
		if (layout.BindingOf(off) == j.cand) != j.candBuilds && !slices.Contains(reads, off) {
			reads = append(reads, off)
		}
	}
	n.layout, n.cols = layout, reads
	t.notes = append(t.notes, n)
	return op
}

func (p *Planner) planConstant(sel *sqlparser.SelectStmt, t *template) (exec.BatchOperator, []string, error) {
	layout := exec.NewLayout(nil)
	var exprs []exec.Evaluator
	var columns []string
	for _, it := range sel.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("planner: SELECT * requires a FROM clause")
		}
		ev, err := exec.Compile(it.Expr, layout)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, ev)
		columns = append(columns, ItemName(it))
	}
	var root exec.BatchOperator = &exec.BatchProject{Child: &exec.OneRow{}, Exprs: exprs}
	if sel.Limit != nil {
		root = &exec.BatchLimit{Child: root, N: *sel.Limit}
	}
	t.notes = append(t.notes, note{text: "constant select"})
	return root, columns, nil
}

// expandItems resolves stars and returns one expression per output column
// plus the output column names.
func (p *Planner) expandItems(sel *sqlparser.SelectStmt, layout *exec.Layout) ([]sqlparser.Expr, []string, error) {
	var items []sqlparser.Expr
	var columns []string
	for _, it := range sel.Items {
		if !it.Star {
			items = append(items, it.Expr)
			columns = append(columns, ItemName(it))
			continue
		}
		for _, b := range layout.Bindings {
			if it.Table != "" && !strings.EqualFold(it.Table, b.Name) {
				continue
			}
			for _, col := range b.Table.Schema.Columns {
				items = append(items, &sqlparser.ColumnRef{Table: b.Name, Column: col.Name})
				columns = append(columns, col.Name)
			}
		}
	}
	if len(items) == 0 {
		return nil, nil, fmt.Errorf("planner: empty select list")
	}
	return items, columns, nil
}

// ItemName is the output-column name of a select item: its alias, else the
// column it reads, else the lower-cased aggregate, else its SQL text.
func ItemName(it sqlparser.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok {
		return cr.Column
	}
	if fc, ok := it.Expr.(*sqlparser.FuncCall); ok {
		return strings.ToLower(string(fc.Name))
	}
	return it.Expr.SQL()
}

// bindingsOf returns the set of binding indexes an expression references.
func (p *Planner) bindingsOf(e sqlparser.Expr, layout *exec.Layout) (map[int]bool, error) {
	out := make(map[int]bool)
	var firstErr error
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if cr, ok := x.(*sqlparser.ColumnRef); ok {
			off, err := layout.Resolve(cr.Table, cr.Column)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return false
			}
			out[layout.BindingOf(off)] = true
		}
		return true
	})
	return out, firstErr
}

// splitAnd flattens the AND-tree of an expression into conjuncts.
func splitAnd(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if l, ok := e.(*sqlparser.Logical); ok && l.Op == sqlparser.LogicAnd {
		return append(splitAnd(l.Left), splitAnd(l.Right)...)
	}
	return []sqlparser.Expr{e}
}

// residualExprs collects all unused conjuncts whose bindings are fully
// joined, marking them used.
func residualExprs(conjuncts []*conjunct, joined map[int]bool) []sqlparser.Expr {
	var exprs []sqlparser.Expr
	for _, c := range conjuncts {
		if c.used {
			continue
		}
		all := true
		for b := range c.bindings {
			if !joined[b] {
				all = false
				break
			}
		}
		if all {
			exprs = append(exprs, c.expr)
			c.used = true
		}
	}
	return exprs
}

// applyResidualFilter applies the now-eligible residual conjuncts on top of
// root, compiled into a fused kernel.
func (p *Planner) applyResidualFilter(root exec.BatchOperator, conjuncts []*conjunct, layout *exec.Layout, joined map[int]bool) (exec.BatchOperator, error) {
	exprs := residualExprs(conjuncts, joined)
	if len(exprs) == 0 {
		return root, nil
	}
	k, _, _, err := exec.CompileKernel(sqlparser.AndAll(exprs...), layout)
	if err != nil {
		return nil, err
	}
	return &exec.BatchFilter{Child: root, Kernel: k}, nil
}
