package planner

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"trac/internal/exec"
	"trac/internal/sqlparser"
)

// The semi-join rule. A SELECT DISTINCT block whose select list and ORDER BY
// read columns of exactly one FROM entry — the anchor — is
//
//	π_anchor-columns ( σ_P ( anchor × R_1 × … × R_n ) )   under set semantics.
//
// Every output tuple is a function of one anchor row, and DISTINCT discards
// multiplicity, so an anchor row contributes its tuple iff SOME combination
// of R_1…R_n rows satisfies P with it: the other relations are existential.
// P's conjuncts that mention no anchor column split R_1…R_n into components
// (relations sharing a conjunct), and a conjunct mentioning the anchor ties
// it to exactly one component, so the existential distributes: the row
// qualifies iff every component, on its own, has a combination that joins
// it. That is a chain of semi-joins, and a component no conjunct ties to the
// anchor degenerates to "is it non-empty" — the existence probe.
//
// Each generated recency arm (recgen: Heartbeat × the user query's other
// relations, DISTINCT sid/recency) has this shape, but nothing here looks at
// table names.

// anchorOf returns the binding a DISTINCT block draws all its output from,
// or -1 when the semi-join rule does not apply.
func anchorOf(b *block) int {
	if !b.sel.Distinct || b.grouped || len(b.layout.Bindings) < 2 {
		return -1
	}
	anchor := -1
	single := func(e sqlparser.Expr) bool {
		ok := true
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			cr, isRef := x.(*sqlparser.ColumnRef)
			if !isRef {
				return ok
			}
			off, err := b.layout.Resolve(cr.Table, cr.Column)
			if err != nil {
				ok = false
				return false
			}
			if r := b.layout.BindingOf(off); anchor < 0 {
				anchor = r
			} else if r != anchor {
				ok = false
			}
			return ok
		})
		return ok
	}
	for _, it := range b.items {
		if !single(it) {
			return -1
		}
	}
	for _, o := range b.sel.OrderBy {
		// Positions and select-list aliases resolve to items, checked above.
		if _, isLit := o.Expr.(*sqlparser.Literal); isLit {
			continue
		}
		if cr, ok := o.Expr.(*sqlparser.ColumnRef); ok && cr.Table == "" && isAlias(b.sel, cr.Column) {
			continue
		}
		if !single(o.Expr) {
			return -1
		}
	}
	return anchor
}

func isAlias(sel *sqlparser.SelectStmt, name string) bool {
	for _, it := range sel.Items {
		if strings.EqualFold(it.Alias, name) {
			return true
		}
	}
	return false
}

// anchorOwn returns the block's conjuncts that read nothing but the anchor
// (constant conjuncts included): the anchor scan's own predicate.
func anchorOwn(b *block, anchor int) []*conjunct {
	var own []*conjunct
	for _, c := range b.conjuncts {
		if len(c.bindings) == 0 || onlyBinding(c.bindings, anchor) {
			own = append(own, c)
		}
	}
	return own
}

// anchoredUnion is a UNION whose blocks can share one anchor scan.
type anchoredUnion struct {
	anchors []int      // per block: the anchor's binding index
	texts   [][]string // per block: SQL text of each anchorOwn conjunct
	scan    int        // the block whose anchor predicate the shared scan carries
}

// unionAnchors decides whether a UNION's blocks can share one anchor scan:
// every block is DISTINCT-anchored on the same table under the same binding
// name with the same select list, and some block's anchor predicate is
// implied by every other's — that block would scan those rows anyway, so the
// shared scan reads no more than the costliest block alone (two blocks with
// different selective anchor predicates keep their own index scans instead).
func unionAnchors(blocks []*block) (*anchoredUnion, bool) {
	u := &anchoredUnion{anchors: make([]int, len(blocks)), texts: make([][]string, len(blocks)), scan: -1}
	for i, b := range blocks {
		if b == nil || len(b.sel.OrderBy) > 0 || b.sel.Limit != nil {
			return nil, false
		}
		a := anchorOf(b)
		if a < 0 {
			return nil, false
		}
		u.anchors[i] = a
		ab, first := b.layout.Bindings[a], blocks[0].layout.Bindings[u.anchors[0]]
		if ab.Table != first.Table || !strings.EqualFold(ab.Name, first.Name) || !sameItems(b.items, blocks[0].items) {
			return nil, false
		}
		for _, c := range anchorOwn(b, a) {
			u.texts[i] = append(u.texts[i], c.expr.SQL())
		}
	}
	for i, cand := range u.texts {
		covered := true
		for _, other := range u.texts {
			for _, text := range cand {
				covered = covered && slices.Contains(other, text)
			}
		}
		if covered {
			u.scan = i
			return u, true
		}
	}
	return nil, false
}

func sameItems(a, b []sqlparser.Expr) bool {
	return slices.EqualFunc(a, b, func(x, y sqlparser.Expr) bool { return x.SQL() == y.SQL() })
}

// AnchorShape is what the shard router needs to know about a
// DISTINCT-anchored block to gather its per-shard answers without
// re-deriving them.
type AnchorShape struct {
	// Anchor is the FROM index of the relation all output comes from.
	Anchor int
	// Tied says, per FROM entry, whether some predicate connects the
	// entry's component to the anchor. An untied entry only has to be
	// non-empty: it cannot change WHICH anchor rows qualify.
	Tied []bool
}

// AnchorShape analyses one SELECT block; it returns nil when the semi-join
// rule does not apply to it.
func (p *Planner) AnchorShape(sel *sqlparser.SelectStmt) (*AnchorShape, error) {
	if len(sel.From) == 0 {
		return nil, nil
	}
	b, err := p.bindBlock(sel)
	if err != nil {
		return nil, err
	}
	a := anchorOf(b)
	if a < 0 {
		return nil, nil
	}
	shape := &AnchorShape{Anchor: a, Tied: make([]bool, len(sel.From))}
	for _, members := range otherComponents(len(sel.From), a, b.conjuncts) {
		tied := false
		for _, c := range b.conjuncts {
			tied = tied || (c.bindings[a] && readsAny(c, members))
		}
		for _, m := range members {
			shape.Tied[m] = tied
		}
	}
	return shape, nil
}

// planAnchored plans DISTINCT-anchored blocks over one anchor as a single
// exec.SemiJoin — the shared anchor scan, then one arm per block — under
// the ORDER BY / projection / LIMIT tail of the first block (the blocks of
// a UNION carry none of their own and share the select list). A lone block
// is the union of itself.
func (p *Planner) planAnchored(blocks []*block, u *anchoredUnion, t *template) (exec.BatchOperator, error) {
	ab := blocks[0].layout.Bindings[u.anchors[0]]
	aLayout := exec.NewLayout([]exec.Binding{{Name: ab.Name, Table: ab.Table}})

	// The anchor scan carries the predicate every block agrees on; what a
	// block asks beyond that becomes its arm's kernel. It carries every
	// anchor column some block reads, wherever: output, kernel, key, residual.
	reads := blocks[0].scratch[:aLayout.Width()]
	clear(reads)
	for bi, b := range blocks {
		off := b.layout.Bindings[u.anchors[bi]].Offset
		for ci := range reads {
			reads[ci] = reads[ci] || b.tail[off+ci]
			for _, c := range b.conjuncts {
				reads[ci] = reads[ci] || c.cols[off+ci]
			}
		}
	}
	anchorOp, anchorEst, n, err := p.accessPath(aLayout, 0, anchorOwn(blocks[u.scan], u.anchors[u.scan]), scanCols{tail: reads}, false)
	if err != nil {
		return nil, err
	}
	t.notes = append(t.notes, n)

	type costed struct {
		arm  exec.SemiArm
		cost float64
	}
	arms := make([]costed, len(blocks))
	for bi, b := range blocks {
		arm, cost, err := p.planArm(b, u.anchors[bi], aLayout, anchorEst, t)
		if err != nil {
			return nil, err
		}
		if bi != u.scan {
			var extra []sqlparser.Expr
			for ci, c := range anchorOwn(b, u.anchors[bi]) {
				if !slices.Contains(u.texts[u.scan], u.texts[bi][ci]) {
					extra = append(extra, c.expr)
				}
			}
			if len(extra) > 0 {
				if arm.Kernel, _, _, err = exec.CompileKernel(sqlparser.AndAll(extra...), aLayout); err != nil {
					return nil, err
				}
			}
		}
		arms[bi] = costed{arm, cost}
	}
	slices.SortStableFunc(arms, func(x, y costed) int { return cmp.Compare(x.cost, y.cost) })
	semi := &exec.SemiJoin{Anchor: anchorOp, Arms: make([]exec.SemiArm, len(arms))}
	for i, a := range arms {
		semi.Arms[i] = a.arm
	}

	// The Distinct of the tail stays: two anchor rows may project alike, even
	// on a PRIMARY KEY column — the engine checks keys against the writer's
	// snapshot only, so overlapping transactions can commit one key twice.
	return p.finishPlain(blocks[0], semi, aLayout)
}

// planArm plans the probes of one block: every component of its relations
// other than the anchor. cost is the arm's estimated probe input.
func (p *Planner) planArm(b *block, anchor int, aLayout *exec.Layout, anchorEst float64, t *template) (exec.SemiArm, float64, error) {
	var arm exec.SemiArm
	layout := b.layout
	for _, c := range anchorOwn(b, anchor) {
		c.used = true // in the anchor scan or the arm's kernel
	}

	type costed struct {
		probe *exec.SemiProbe
		est   float64
		note  note
	}
	var probes []costed
	for _, members := range otherComponents(len(layout.Bindings), anchor, b.conjuncts) {
		// Conjuncts tying the component to the anchor: an equality with the
		// anchor alone on one side is a hash key, anything else a residual.
		// Their columns are what the probe reads off the component's tuples.
		probe := &exec.SemiProbe{AnchorOffset: layout.Bindings[anchor].Offset, Width: layout.Width()}
		var keys []*equiKey
		var residual []sqlparser.Expr
		tying := b.scratch
		clear(tying)
		for _, c := range b.conjuncts {
			if c.used || !c.bindings[anchor] || !readsAny(c, members) {
				continue
			}
			c.used = true
			for off, on := range c.cols {
				tying[off] = tying[off] || on
			}
			if k := p.anchorKey(c, layout, anchor); k != nil {
				keys = append(keys, k)
			} else {
				residual = append(residual, c.expr)
			}
		}
		existence := len(keys) == 0 && len(residual) == 0

		// Either way the component's tuples have the block's layout; a
		// columnar scan carries only the columns read.
		var src exec.BatchOperator
		var est float64
		name := layout.Bindings[members[0]].Name
		if len(members) == 1 {
			var mine []*conjunct
			for _, c := range b.conjuncts {
				if !c.used && onlyBinding(c.bindings, members[0]) {
					mine = append(mine, c)
				}
			}
			var n note
			var err error
			src, est, n, err = p.accessPath(layout, members[0], mine, scanCols{tail: tying, own: mine}, existence)
			if err != nil {
				return arm, 0, err
			}
			t.notes = append(t.notes, n)
		} else {
			var err error
			src, err = p.joinTree(layout, members, b.conjuncts, tying, t, existence)
			if err != nil {
				return arm, 0, err
			}
			for _, m := range members[1:] {
				name += ", " + layout.Bindings[m].Name
			}
			for _, m := range members {
				est += float64(layout.Bindings[m].Table.LiveRows())
			}
		}
		probe.Src = src
		for _, k := range keys {
			ak, err := exec.Compile(k.curExpr, aLayout)
			if err != nil {
				return arm, 0, err
			}
			pk, err := exec.Compile(k.newExpr, layout)
			if err != nil {
				return arm, 0, err
			}
			probe.AnchorKeys = append(probe.AnchorKeys, ak)
			probe.ProbeKeys = append(probe.ProbeKeys, pk)
			probe.AnchorCols = append(probe.AnchorCols, bareCol(k.curExpr, aLayout))
			probe.ProbeCols = append(probe.ProbeCols, bareCol(k.newExpr, layout))
		}
		if len(residual) > 0 {
			var err error
			probe.Residual, err = exec.Compile(sqlparser.AndAll(residual...), layout)
			if err != nil {
				return arm, 0, err
			}
		}
		if existence {
			// An existence probe stops at the first row it sees.
			est = 0
		}
		// A probe that reads a hash partition of a sharded table and comes
		// back exhausted leaves the answer open to another shard's partition
		// (Plan.PartitionExhausted).
		part := false
		for _, m := range members {
			_, ok := layout.Bindings[m].Table.Partition()
			part = part || ok
		}
		probes = append(probes, costed{probe, est, note{
			kind: noteSemiJoin, col: layout.Bindings[anchor].Name, est: anchorEst, name: name, flag: existence, part: part, op: probe,
		}})
	}
	for _, c := range b.conjuncts {
		if !c.used {
			return arm, 0, fmt.Errorf("planner: predicate %s was not placed in the semi-join plan", c.expr.SQL())
		}
	}

	// Cheapest first: an empty existence probe spares the arm its scans.
	slices.SortStableFunc(probes, func(x, y costed) int { return cmp.Compare(x.est, y.est) })
	cost := 0.0
	for _, pr := range probes {
		arm.Probes = append(arm.Probes, pr.probe)
		t.notes = append(t.notes, pr.note)
		cost += pr.est
	}
	return arm, cost, nil
}

// readsAny reports whether the conjunct mentions one of the bindings.
func readsAny(c *conjunct, bindings []int) bool {
	for _, b := range bindings {
		if c.bindings[b] {
			return true
		}
	}
	return false
}

// anchorKey recognizes `anchor-expr = component-expr` (either way round) and
// returns it with curExpr the anchor side and newExpr the component side.
func (p *Planner) anchorKey(c *conjunct, layout *exec.Layout, anchor int) *equiKey {
	cmp, ok := c.expr.(*sqlparser.Comparison)
	if !ok || cmp.Op != sqlparser.CmpEq {
		return nil
	}
	lb, err1 := p.bindingsOf(cmp.Left, layout)
	rb, err2 := p.bindingsOf(cmp.Right, layout)
	if err1 != nil || err2 != nil {
		return nil
	}
	switch {
	case onlyBinding(lb, anchor) && len(rb) > 0 && !rb[anchor]:
		return &equiKey{curExpr: cmp.Left, newExpr: cmp.Right, conj: c}
	case onlyBinding(rb, anchor) && len(lb) > 0 && !lb[anchor]:
		return &equiKey{curExpr: cmp.Right, newExpr: cmp.Left, conj: c}
	}
	return nil
}

// otherComponents groups the non-anchor bindings into components: two
// bindings share a component when some conjunct reads both (whether or not
// it also reads the anchor). Components come back in FROM order.
func otherComponents(n, anchor int, conjuncts []*conjunct) [][]int {
	comp := make([]int, n) // comp[i]: smallest binding index of i's component
	for i := range comp {
		comp[i] = i
	}
	for changed := true; changed; {
		changed = false
		for _, c := range conjuncts {
			low := n
			for b := range c.bindings {
				if b != anchor && comp[b] < low {
					low = comp[b]
				}
			}
			for b := range c.bindings {
				if b != anchor && comp[b] != low {
					comp[b], changed = low, true
				}
			}
		}
	}
	var out [][]int
	for i := 0; i < n; i++ {
		if i == anchor {
			continue
		}
		if comp[i] == i {
			out = append(out, []int{i})
			continue
		}
		for k := range out {
			if out[k][0] == comp[i] {
				out[k] = append(out[k], i)
			}
		}
	}
	return out
}
