package exec

import (
	"math"
	"strconv"
	"strings"

	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// Operator is the iterator-model interface every physical operator
// implements. The contract is Open, then Next until ok=false, then Close.
type Operator interface {
	// Open prepares the operator for iteration.
	Open() error
	// Next produces the next tuple; ok=false signals exhaustion.
	Next() (row []types.Value, ok bool, err error)
	// Close releases resources. It is safe to call after exhaustion.
	Close() error
}

// Drain runs an operator to completion and collects its output. A root that
// bridges a batch pipeline is pulled batch-at-a-time and its tuples minted
// here; an operator that knows how many tuples it holds (bounded) sizes the
// result.
func Drain(op Operator) ([][]types.Value, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out [][]types.Value
	root := unwrap(op)
	if bd, ok := root.(bounded); ok {
		if n, known := bd.Bound(); known {
			out = make([][]types.Value, 0, n)
		}
	}
	if r, ok := root.(*RowFromBatch); ok {
		for {
			b, err := r.Src.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			out = b.AppendRows(out)
			PutBatch(b)
		}
		r.Boxed += len(out)
		return out, nil
	}
	for {
		row, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}

// DrainBatch runs an operator to completion and returns its output unboxed,
// as one batch the caller owns and recycles with PutBatch (nil when there is
// none). A root that bridges a batch pipeline hands its batches over as they
// are — one batch whole, several gathered into one — and mints no tuple; any
// other root's tuples are transposed into the batch once (BatchOf).
func DrainBatch(op Operator) (*Batch, error) {
	if r, ok := unwrap(op).(*RowFromBatch); ok {
		if err := op.Open(); err != nil {
			return nil, err
		}
		defer op.Close()
		return gatherAll(r.Src)
	}
	rows, err := Drain(op)
	if err != nil {
		return nil, err
	}
	return BatchOf(rows), nil
}

// BatchOf transposes tuples of one width into a batch the caller owns (nil
// when there are none): each column is typed by its first non-NULL value and
// turns generic where a later value's kind differs (vecSet).
func BatchOf(rows [][]types.Value) *Batch {
	if len(rows) == 0 {
		return nil
	}
	b := GetBatch()
	b.Shape(len(rows[0]), len(rows))
	for c := range b.Cols {
		kind := types.KindNull
		for _, row := range rows {
			if !row[c].IsNull() {
				kind = row[c].Kind()
				break
			}
		}
		cv := b.NewVec(kind)
		vecResize(cv, len(rows))
		for k, row := range rows {
			vecSet(cv, k, row[c])
		}
		b.Cols[c] = cv
	}
	b.SelectAll()
	return b
}

// wrapper is implemented by a plan root that stands in front of an operator
// tree without being part of it — the planner's hold on a reusable tree,
// which hands the tree back when closed. Drain and the tree walks look
// through it.
type wrapper interface {
	Unwrap() Operator
}

// unwrap looks through a wrapper to the tree's own root.
func unwrap(op Operator) Operator {
	if w, ok := op.(wrapper); ok {
		return w.Unwrap()
	}
	return op
}

// bounded is implemented by operators that, once open, can state an upper
// bound on the tuples they have yet to emit: a materialized aggregate, sort
// or semi-join, and the pass-through operators above one.
type bounded interface {
	Bound() (n int, known bool)
}

// boundOf asks an operator (row or batch) for its bound.
func boundOf(op any) (int, bool) {
	if bd, ok := op.(bounded); ok {
		return bd.Bound()
	}
	return 0, false
}

// eachInput calls fn with every operator, row or batch, directly beneath a
// plan node.
func eachInput(node any, fn func(any)) {
	switch n := node.(type) {
	case *RowFromBatch:
		fn(n.Src)
	case *rowSource:
		fn(n.child)
	case *Filter:
		fn(n.Child)
	case *Project:
		fn(n.Child)
	case *Sort:
		fn(n.Child)
	case *Limit:
		fn(n.Child)
	case *Distinct:
		fn(n.Child)
	case *BatchGroupAggregate:
		fn(n.Src)
	case *ParallelGroupAggregate:
		fn(n.Scan)
	case *NestedLoopJoin:
		fn(n.Outer)
		fn(n.Inner)
	case *Union:
		for _, c := range n.Children {
			fn(c)
		}
	case *Exchange:
		for _, c := range n.Children {
			fn(c)
		}
	case *BatchFilter:
		fn(n.Child)
	case *BatchProject:
		fn(n.Child)
	case *BatchDistinct:
		fn(n.Child)
	case *BatchHashJoin:
		fn(n.Build)
		fn(n.Probe)
	case *SemiJoin:
		fn(n.Anchor)
		for _, arm := range n.Arms {
			for _, p := range arm.Probes {
				fn(p.Src)
			}
		}
	case wrapper:
		fn(n.Unwrap())
	}
}

// Scans calls fn with the table and the snapshot field of every scan in an
// operator tree: what running the tree again at another snapshot re-binds.
func Scans(op Operator, fn func(*storage.Table, *txn.Snapshot)) { scans(op, fn) }

func scans(node any, fn func(*storage.Table, *txn.Snapshot)) {
	switch n := node.(type) {
	case *IndexScan:
		fn(n.Table, &n.Snap)
	case *BatchScan:
		fn(n.Table, &n.Snap)
	case *ParallelScan:
		fn(n.Table, &n.Snap)
	case *StatAggScan:
		fn(n.Table, &n.Snap)
	}
	eachInput(node, func(in any) { scans(in, fn) })
}

// recycled empties a scratch slice for its operator's next run. Its elements
// are zeroed, so it keeps no pointer into the last run's data, and one grown
// past most elements is dropped: a tree kept for reuse holds no buffer the
// size of a large last input.
func recycled[T any](s []T, most int) []T {
	if cap(s) > most {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// keptScratch is the most of a scratch slice a closed operator keeps: what a
// point probe or a selective join's probe batch needs.
const keptScratch = 256

// keptAnchor is the most anchor positions a closed SemiJoin keeps its
// per-position buffers for: a recency plan's anchor, the sources of its
// Heartbeat relation, is the same few thousand rows on every refresh, while
// a user query anchored on a fact table must not pin buffers its size.
const keptAnchor = 8192

// Vectorized reports whether any part of an operator tree runs
// batch-at-a-time over column vectors — every plan that reads a table does;
// a constant SELECT or a gather over materialized rows does not. The bridges
// (RowFromBatch, the row→batch shim) and a SemiJoin only carry what their
// inputs produce. The planner records the answer in explain output and the
// engine surfaces it on results.
func Vectorized(op Operator) bool { return vectorized(op) }

func vectorized(node any) bool {
	switch node.(type) {
	case *BatchScan, *IndexScan, *ParallelScan, *Exchange, *BatchFilter, *BatchProject, *BatchDistinct,
		*BatchHashJoin, *BatchGroupAggregate, *ParallelGroupAggregate, *StatAggScan:
		return true
	}
	found := false
	eachInput(node, func(in any) { found = found || vectorized(in) })
	return found
}

// ParallelDegree reports the maximum parallel worker count anywhere in an
// operator tree (1 for a fully single-threaded plan). The planner records it
// in explain output and the engine surfaces it on results.
func ParallelDegree(op Operator) int { return parallelDegree(op) }

func parallelDegree(node any) int {
	d := 1
	switch n := node.(type) {
	case *ParallelScan:
		d = n.Degree()
	case *StatAggScan:
		d = n.Degree()
	case *Exchange:
		d = max(d, len(n.Children))
	}
	eachInput(node, func(in any) { d = max(d, parallelDegree(in)) })
	return d
}

// RowsBoxed counts the tuples the last execution minted at the plan's
// batch→row bridges, hash-join build sides excluded (a build side is
// materialized by design; what the count watches is the probe stream).
func RowsBoxed(op Operator) int { return rowsBoxed(op) }

func rowsBoxed(node any) int {
	n := 0
	switch j := node.(type) {
	case *RowFromBatch:
		n = j.Boxed
	case *BatchHashJoin:
		return rowsBoxed(j.Probe)
	}
	eachInput(node, func(in any) { n += rowsBoxed(in) })
	return n
}

// AppendKey appends a canonical, collision-free encoding of the values to
// dst and returns the extended slice. It is used for hash-join keys,
// DISTINCT, GROUP BY, and UNION deduplication; append-style so hot loops
// can reuse one scratch buffer and look up maps via string(buf) without
// allocating.
func AppendKey(dst []byte, vals ...types.Value) []byte {
	for _, v := range vals {
		switch v.Kind() {
		case types.KindNull:
			dst = append(dst, 'n')
		case types.KindBool:
			dst = append(dst, 'b')
			if v.Bool() {
				dst = append(dst, '1')
			} else {
				dst = append(dst, '0')
			}
		case types.KindInt:
			dst = append(dst, 'i')
			dst = strconv.AppendInt(dst, v.Int(), 10)
		case types.KindFloat:
			// Integral floats encode like ints so 3 and 3.0 hash equal,
			// matching their comparison behaviour, without losing int64
			// precision on large values.
			f := v.Float()
			if f == math.Trunc(f) && f >= -9.007199254740992e15 && f <= 9.007199254740992e15 {
				dst = append(dst, 'i')
				dst = strconv.AppendInt(dst, int64(f), 10)
			} else {
				dst = append(dst, 'f')
				dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
			}
		case types.KindString:
			dst = append(dst, 's')
			dst = strconv.AppendInt(dst, int64(len(v.Str())), 10)
			dst = append(dst, ':')
			dst = append(dst, v.Str()...)
		case types.KindTime:
			dst = append(dst, 't')
			dst = strconv.AppendInt(dst, v.TimeNanos(), 10)
		}
		dst = append(dst, '|')
	}
	return dst
}

// EncodeKey appends the canonical value encoding to sb (see AppendKey).
func EncodeKey(sb *strings.Builder, vals ...types.Value) {
	sb.Write(AppendKey(make([]byte, 0, 32), vals...))
}

// RowKey returns the canonical encoding of a full row.
func RowKey(vals []types.Value) string {
	return string(AppendKey(make([]byte, 0, 32), vals...))
}
