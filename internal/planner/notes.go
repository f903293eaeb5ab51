package planner

import (
	"fmt"
	"strings"

	"trac/internal/exec"
	"trac/internal/storage"
)

// noteKind is the shape of one planning note.
type noteKind uint8

const (
	noteText       noteKind = iota // text
	noteCount                      // text, a format with one %d for n
	noteIndexScan                  // name.col, n probe keys (0: a range), est
	noteSeqScan                    // name, n workers, fused/total, est; segments of table under segf
	noteHashJoin                   // name, est, est2 so far, flag: name builds; probe columns cols of layout
	noteNestedLoop                 // name, est
	noteSemiJoin                   // col the anchor, est, name the probe; flag: existence; part: a partition is read
	noteStatAgg                    // the aggregate's segment classification
)

// note is one planning decision, kept as data: Describe renders it, so
// planning formats nothing. A note whose op is set also reports what the
// run of that operator did.
type note struct {
	kind         noteKind
	text         string
	name, col    string
	n            int
	fused, total int
	est, est2    float64
	flag, part   bool
	table        *storage.Table
	segf         *exec.SegmentFilter
	layout       *exec.Layout
	cols         []int
	op           any // *exec.SemiProbe or *exec.StatAggScan
}

// ran is what a run left in the operator a note reports on.
type ran struct {
	rows      int    // semi-join: probe rows read
	meta      int    // semi-join: sealed segments taken from their source sets
	exhausted bool   // semi-join: the probe side ended with candidates unmarked
	segs      [4]int // stat aggregate: segments stat-answered, scanned, pruned; tail rows
}

// capture appends what the tree's last run left in each note's operator.
func (t *template) capture(dst []ran) []ran {
	for i := range t.notes {
		switch op := t.notes[i].op.(type) {
		case *exec.SemiProbe:
			dst = append(dst, ran{rows: op.Probed, meta: op.MetaSegments, exhausted: op.Exhausted})
		case *exec.StatAggScan:
			dst = append(dst, ran{segs: [4]int{op.StatSegments, op.ScannedSegments, op.PrunedSegments, op.TailRows}})
		}
	}
	return dst
}

// PartitionExhausted reports whether a semi-join probe that reads one hash
// partition of a sharded table (its note's part, fixed when the plan was
// made) reached the end of its input with candidates left unmarked in the
// plan's run: what this shard's partition lacked, another's may hold. It
// reads what Close captured, so it is false for a plan that has not run and
// closed.
func (p *Plan) PartitionExhausted() bool {
	runs := p.runs
	for i := range p.t.notes {
		n := &p.t.notes[i]
		if n.op == nil || len(runs) == 0 {
			continue
		}
		if n.kind == noteSemiJoin && n.part && runs[0].exhausted {
			return true
		}
		runs = runs[1:]
	}
	return false
}

// Describe renders the planning notes, including the plan's parallel degree.
// Once the plan has run, semi-join notes also carry how many sealed segments
// each probe took from their source sets and how many rows it read. Segment
// notes describe the table as it is when Describe is called.
func (p *Plan) Describe() string {
	var runs []ran
	switch {
	case p.closed:
		runs = p.runs
	case p.opened:
		runs = p.t.capture(nil)
	}
	p.Notes = p.Notes[:0]
	for i := range p.t.notes {
		n := &p.t.notes[i]
		var r *ran
		if n.op != nil && runs != nil {
			r, runs = &runs[0], runs[1:]
		}
		p.Notes = append(p.Notes, n.render(r))
	}
	out := strings.Join(p.Notes, "\n")
	if p.Parallel > 1 {
		out += fmt.Sprintf("\nparallel degree: %d", p.Parallel)
	}
	return out
}

// render formats the note; r is what the run left, nil before a run.
func (n *note) render(r *ran) string {
	switch n.kind {
	case noteCount:
		return fmt.Sprintf(n.text, n.n)
	case noteIndexScan:
		kind := "range"
		if n.n > 0 {
			kind = fmt.Sprintf("%d key(s)", n.n)
		}
		return fmt.Sprintf("index scan on %s.%s (%s, est %.0f rows)", n.name, n.col, kind, n.est)
	case noteSeqScan:
		fused := ""
		if n.total > 0 {
			fused = fmt.Sprintf("fused %d/%d predicates, ", n.fused, n.total)
		}
		if n.n > 1 {
			return fmt.Sprintf("vectorized parallel seq scan on %s (%d workers, %sest %.0f rows%s)",
				n.name, n.n, fused, n.est, segmentPruneNote(n.table, n.segf))
		}
		return fmt.Sprintf("vectorized seq scan on %s (%sest %.0f rows%s)", n.name, fused, n.est, segmentPruneNote(n.table, n.segf))
	case noteHashJoin:
		var s string
		if n.flag {
			s = fmt.Sprintf("hash join: build %s (est %.0f), probe so-far (est %.0f)", n.name, n.est, n.est2)
		} else {
			s = fmt.Sprintf("hash join: build so-far (est %.0f), probe %s (est %.0f)", n.est2, n.name, n.est)
		}
		return s + fmt.Sprintf(" columnar [%s]", colNames(n.layout, n.cols))
	case noteNestedLoop:
		return fmt.Sprintf("nested loop: %s (est %.0f)", n.name, n.est)
	case noteSemiJoin:
		s := fmt.Sprintf("semi-join: anchor %s (%.0f rows), probe %s", n.col, n.est, n.name)
		if n.flag {
			s += " (existence)"
		}
		if r == nil || (r.rows == 0 && r.meta == 0 && !r.exhausted) {
			return s // not run, or never opened
		}
		s += ": "
		if r.meta > 0 {
			s += fmt.Sprintf("%d segments from source sets, ", r.meta)
		}
		end := "stopped"
		if r.exhausted {
			end = "exhausted"
		}
		return s + fmt.Sprintf("%d rows read, %s", r.rows, end)
	case noteStatAgg:
		segs := r.segsOr(n.op.(*exec.StatAggScan))
		return fmt.Sprintf("agg: %d segments answered from stats, %d scanned, %d pruned, tail %d rows",
			segs[0], segs[1], segs[2], segs[3])
	}
	return n.text
}

// segsOr is the run's classification of the aggregate's segments, or before
// a run the one the table's heap gives now.
func (r *ran) segsOr(agg *exec.StatAggScan) [4]int {
	if r != nil {
		return r.segs
	}
	stat, scanned, pruned, tail := agg.Classify()
	return [4]int{stat, scanned, pruned, tail}
}

// segmentPruneNote describes the sealed-segment coverage of a table and how
// many segments the compiled filter's zone maps prune, against the heap as
// it is now (the scan re-checks its own execution snapshot). Empty when the
// table has no sealed segments.
func segmentPruneNote(tbl *storage.Table, segf *exec.SegmentFilter) string {
	heap := tbl.Snap()
	if len(heap.Segments) == 0 {
		return ""
	}
	pruned := 0
	if segf != nil {
		for _, seg := range heap.Segments {
			if segf.Prune(seg) {
				pruned++
			}
		}
	}
	return fmt.Sprintf(", segments %d/%d pruned, tail %d rows",
		pruned, len(heap.Segments), len(heap.Tail()))
}

// colNames renders tuple offsets as binding.column, for explain notes.
func colNames(layout *exec.Layout, offs []int) string {
	names := make([]string, len(offs))
	for i, off := range offs {
		c, _ := layout.ColumnAt(off)
		names[i] = layout.Bindings[layout.BindingOf(off)].Name + "." + c.Name
	}
	return strings.Join(names, ", ")
}
