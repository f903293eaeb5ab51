package planner

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"

	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
)

// templateSlots bounds the statements the planner keeps a slot for. The hot
// set of a monitoring dashboard is several hundred statements — each
// repeated text is planned as a bare query and as a report's user and
// recency queries, by every caller that prepares it on its own — and the
// bound leaves room for the one-off texts that arrive between two repeats of
// a hot one. A slot of a statement planned once pins only its parsed text,
// and a kept tree holds no data.
const templateSlots = 1024

// A template is the operator tree planned for one parsed statement, kept so
// that the next PlanSelect of the same statement re-binds it to its snapshot
// instead of planning again. Everything in a tree but the Snap fields of its
// scans comes from the statement text and the catalog; the validity rule at
// checkout (valid) replans whenever the catalog could have changed a
// decision. A closed tree holds no data: its operators drop their rows,
// batches and hash tables on Close.
type template struct {
	root     exec.BatchOperator
	columns  []string
	notes    []note
	parallel int
	snaps    []*txn.Snapshot // every scan's Snap field
	groups   bool            // planned up to the aggregation (PlanGroups)

	// What the plan was made against.
	version uint64
	par     parallelism
	tables  []boundTable
}

// boundTable is one table a template reads, with its size when planned.
type boundTable struct {
	name           string // its catalog name, lower-cased
	table          *storage.Table
	live, versions int
}

// parallelism is the planner configuration a parallel degree was chosen under.
type parallelism struct{ threshold, max, procs int }

func (p *Planner) parallelism() parallelism {
	return parallelism{p.ParallelThreshold, p.MaxParallel, runtime.GOMAXPROCS(0)}
}

// slot holds one statement's idle tree: nil while it is checked out, or
// before a plan of the statement has closed for the second time.
type slot struct {
	idle atomic.Pointer[template]
}

// PlanSelect returns a plan for a SELECT against the given snapshot. The
// statement's idle tree, if it has one and it is still valid, is re-bound to
// the snapshot; otherwise the statement is planned afresh. Closing the
// plan's Root hands the tree back to the statement's slot for the next call
// (unless another tree got there first), so the plan must not be run again
// after its Root is closed. The first plan of a statement is not kept: a
// statement planned once — a text with fresh literals — never holds a tree.
func (p *Planner) PlanSelect(sel *sqlparser.SelectStmt, snap txn.Snapshot) (*Plan, error) {
	return p.bind(sel, snap, false)
}

// PlanGroups plans a grouped block (Grouped) up to its aggregation
// operator, through the statement's slot as PlanSelect does. The plan's Root
// hands its group table over to exec.GatherGroups, which merges the tables
// of the block's plans on several shards; FinishGroups finishes the merged
// groups.
func (p *Planner) PlanGroups(sel *sqlparser.SelectStmt, snap txn.Snapshot) (*Plan, error) {
	return p.bind(sel, snap, true)
}

// bind is PlanSelect, or PlanGroups when groups is set.
func (p *Planner) bind(sel *sqlparser.SelectStmt, snap txn.Snapshot, groups bool) (*Plan, error) {
	s, seen := p.templates.Get(sel)
	var t *template
	if seen {
		t = s.idle.Swap(nil)
	} else {
		s = nil
		p.templates.Put(sel, new(slot))
	}
	if t != nil && t.groups == groups && p.valid(t) {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
		var err error
		if t, err = p.plan(sel, groups); err != nil {
			return nil, err
		}
	}
	for _, sp := range t.snaps {
		*sp = snap
	}
	c := &checkout{slot: s}
	c.plan = Plan{Root: c, Columns: t.columns, Parallel: t.parallel, Vectorized: true, t: t}
	return &c.plan, nil
}

// TemplateStats returns how many PlanSelect calls re-bound a kept tree
// (hits) and how many planned afresh (misses).
func (p *Planner) TemplateStats() (hits, misses uint64) {
	return p.hits.Load(), p.misses.Load()
}

// plan plans a statement afresh: whole, or up to its aggregation operator
// when groups is set.
func (p *Planner) plan(sel *sqlparser.SelectStmt, groups bool) (*template, error) {
	// Read before planning: a change that lands meanwhile is a mismatch.
	t := &template{version: p.Catalog.Version(), par: p.parallelism(), groups: groups}
	var err error
	switch {
	case groups && (len(sel.Union) > 0 || len(sel.From) == 0 || !Grouped(sel)):
		return nil, errNotGrouped
	case len(sel.Union) > 0:
		t.root, t.columns, err = p.planUnion(sel, t)
	default:
		t.root, t.columns, err = p.planBlock(sel, t)
	}
	if err != nil {
		return nil, err
	}
	// Every plan of the statement hands out this slice: no append may reach
	// its backing array.
	t.columns = slices.Clip(t.columns)
	t.parallel = exec.ParallelDegree(t.root)
	exec.Scans(t.root, func(tbl *storage.Table, snap *txn.Snapshot) {
		t.snaps = append(t.snaps, snap)
		for _, b := range t.tables {
			if b.table == tbl {
				return
			}
		}
		t.tables = append(t.tables, boundTable{
			name: strings.ToLower(tbl.Name), table: tbl, live: tbl.LiveRows(), versions: tbl.NumVersions(),
		})
	})
	return t, nil
}

// valid reports whether a kept tree still says what planning the statement
// now would: the catalog version is the one it was planned under (DDL,
// CHECKs, domains, ANALYZE), so is the parallel configuration, every table it
// reads is still the one its name resolves to (a session's temp tables are
// dropped without a version bump), and no table has grown or shrunk by more
// than a quarter in live rows or versions — the estimates behind its access
// paths, build sides, arm order and parallel degree.
func (p *Planner) valid(t *template) bool {
	if t.version != p.Catalog.Version() || t.par != p.parallelism() {
		return false
	}
	for _, b := range t.tables {
		if tbl, err := p.Catalog.Get(b.name); err != nil || tbl != b.table {
			return false
		}
		if !near(b.table.LiveRows(), b.live) || !near(b.table.NumVersions(), b.versions) {
			return false
		}
	}
	return true
}

// near reports whether now is within a quarter of then.
func near(now, then int) bool { return 4*now >= 3*then && 4*now <= 5*then }

// checkout is one PlanSelect call's hold on a tree: the Plan it returns, and
// the Root of that plan, which runs the tree and hands it back when closed.
type checkout struct {
	plan   Plan
	slot   *slot // where the tree goes back; nil for a statement's first plan
	inline [4]ran
}

// Open opens the tree.
func (c *checkout) Open() error {
	if c.plan.closed {
		return errClosedPlan
	}
	c.plan.opened = true
	return c.plan.t.root.Open()
}

var errNotGrouped = errors.New("planner: PlanGroups takes one grouped block with a FROM list")

var errClosedPlan = errors.New("planner: the plan was closed and its tree handed back; plan the statement again")

// NextBatch pulls the tree's next batch.
func (c *checkout) NextBatch() (*exec.Batch, error) { return c.plan.t.root.NextBatch() }

// Unwrap is the tree's own root.
func (c *checkout) Unwrap() exec.BatchOperator { return c.plan.t.root }

// Close closes the tree, captures what the run left for Describe and hands
// the tree back to the statement's slot — where, if a concurrent caller's
// tree is there already, it is dropped. Closing again is a no-op: the tree
// may be another caller's by then.
func (c *checkout) Close() error {
	if c.plan.closed {
		return nil
	}
	t := c.plan.t
	err := t.root.Close()
	c.plan.runs, c.plan.closed = t.capture(c.inline[:0]), true
	if c.slot != nil {
		c.slot.idle.CompareAndSwap(nil, t)
	}
	return err
}
