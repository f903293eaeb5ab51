package exec

import (
	"math"
	"strconv"
	"strings"

	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// Drain runs an operator to completion and mints its output as tuples: the
// edge where an answer leaves the executor as rows (a result's Rows).
func Drain(op BatchOperator) ([][]types.Value, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out [][]types.Value
	for {
		b, err := op.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = b.AppendRows(out)
		PutBatch(b)
	}
}

// DrainBatch runs an operator to completion and returns its output unboxed,
// as one batch the caller owns and recycles with PutBatch (nil when there is
// none): the operator's own batch when it emits just one, otherwise its
// batches gathered into one, in order (concat).
func DrainBatch(op BatchOperator) (*Batch, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var c concat
	for {
		b, err := op.NextBatch()
		if err != nil {
			PutBatch(c.all)
			return nil, err
		}
		if b == nil {
			return c.done(), nil
		}
		c.add(b)
	}
}

// wrapper is implemented by a plan root that stands in front of an operator
// tree without being part of it — the planner's hold on a reusable tree,
// which hands the tree back when closed. The tree walks look through it.
type wrapper interface {
	Unwrap() BatchOperator
}

// eachInput calls fn with every operator directly beneath a plan node.
func eachInput(node BatchOperator, fn func(BatchOperator)) {
	switch n := node.(type) {
	case *BatchFilter:
		fn(n.Child)
	case *BatchProject:
		fn(n.Child)
	case *BatchDistinct:
		fn(n.Child)
	case *BatchSort:
		fn(n.Child)
	case *BatchLimit:
		fn(n.Child)
	case *BatchUnion:
		for _, c := range n.Children {
			fn(c)
		}
	case *BatchGroupAggregate:
		fn(n.Src)
	case *ParallelGroupAggregate:
		fn(n.Scan)
	case *Exchange:
		for _, c := range n.Children {
			fn(c)
		}
	case *BatchHashJoin:
		fn(n.Build)
		fn(n.Probe)
	case *BatchNestedLoopJoin:
		fn(n.Outer)
		fn(n.Inner)
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
func Scans(op BatchOperator, fn func(*storage.Table, *txn.Snapshot)) {
	switch n := op.(type) {
	case *IndexScan:
		fn(n.Table, &n.Snap)
	case *BatchScan:
		fn(n.Table, &n.Snap)
	case *ParallelScan:
		fn(n.Table, &n.Snap)
	case *StatAggScan:
		fn(n.Table, &n.Snap)
	}
	eachInput(op, func(in BatchOperator) { Scans(in, fn) })
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

// ParallelDegree reports the maximum parallel worker count anywhere in an
// operator tree (1 for a fully single-threaded plan). The planner records it
// in explain output and the engine surfaces it on results.
func ParallelDegree(op BatchOperator) int {
	d := 1
	switch n := op.(type) {
	case *ParallelScan:
		d = n.Degree()
	case *StatAggScan:
		d = n.Degree()
	case *Exchange:
		d = max(d, len(n.Children))
	}
	eachInput(op, func(in BatchOperator) { d = max(d, ParallelDegree(in)) })
	return d
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
