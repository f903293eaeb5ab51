package exec

import (
	"sync"

	"trac/internal/types"
)

// BatchSize is the target row count per batch. It is large enough to
// amortize per-batch overhead (interface calls, channel sends, kernel
// dispatch) over ~1k rows, and small enough that a batch of row headers
// stays cache-resident.
const BatchSize = 1024

// Batch is a window of rows plus a selection vector. Operators communicate
// batch-at-a-time by handing over *Batch values; the receiving operator
// narrows Sel in place (filters) or emits a fresh batch (projections,
// joins).
//
// Rows[Sel[i]] for i in [0, Len()) are the live rows, in order. Rows not
// referenced by Sel are dead (filtered out earlier in the pipeline) but
// still owned by the batch until it is recycled.
//
// Batch rows may alias storage heap memory (see BatchScan): operators must
// never mutate a row slice in place. This is safe because heap row versions
// are immutable once published (MVCC append-only) and every planner
// pipeline terminates in an operator that mints fresh output tuples.
type Batch struct {
	Rows [][]types.Value
	Sel  []int
}

// Len returns the number of selected rows.
func (b *Batch) Len() int { return len(b.Sel) }

// Row returns the i-th selected row.
func (b *Batch) Row(i int) []types.Value { return b.Rows[b.Sel[i]] }

// Col returns column col of the i-th selected row.
func (b *Batch) Col(i, col int) types.Value { return b.Rows[b.Sel[i]][col] }

// Append adds a row to the batch and selects it.
func (b *Batch) Append(row []types.Value) {
	b.Sel = append(b.Sel, len(b.Rows))
	b.Rows = append(b.Rows, row)
}

// Full reports whether the batch reached its target size.
func (b *Batch) Full() bool { return len(b.Rows) >= BatchSize }

// reset clears the batch for reuse, dropping row references so a pooled
// batch does not retain heap snapshots.
func (b *Batch) reset() {
	clear(b.Rows)
	b.Rows = b.Rows[:0]
	b.Sel = b.Sel[:0]
}

// batchPool recycles batches across operators and pipelines. Ownership
// discipline: NextBatch transfers ownership of the returned batch to the
// caller; whoever consumes a batch without forwarding it calls PutBatch.
var batchPool = sync.Pool{
	New: func() any {
		return &Batch{
			Rows: make([][]types.Value, 0, BatchSize),
			Sel:  make([]int, 0, BatchSize),
		}
	},
}

// GetBatch returns an empty batch from the pool.
func GetBatch() *Batch { return batchPool.Get().(*Batch) }

// PutBatch recycles a batch. The caller must not touch it afterwards; row
// slices previously handed out by Row remain valid (only the Rows/Sel
// headers are reused, never the row slices themselves).
func PutBatch(b *Batch) {
	if b == nil {
		return
	}
	b.reset()
	batchPool.Put(b)
}

// BatchOperator is the batch-at-a-time counterpart of Operator. The
// contract is Open, then NextBatch until it returns a nil batch, then
// Close. Every returned batch has Len() > 0; ownership transfers to the
// caller (recycle with PutBatch or forward it).
type BatchOperator interface {
	Open() error
	NextBatch() (*Batch, error)
	Close() error
}

// ToBatch adapts a row operator into a batch operator by accumulating up to
// BatchSize rows per batch. It is the shim that lets arbitrary row
// operators feed batch pipelines (and batch Exchange producers).
func ToBatch(op Operator) BatchOperator {
	if src, ok := AsBatch(op); ok {
		return src // unwrap a round trip; a ParallelScan speaks batches itself
	}
	return &rowSource{child: op}
}

// rowSource is the row→batch adapter.
type rowSource struct {
	child Operator
}

func (r *rowSource) Open() error { return r.child.Open() }

func (r *rowSource) NextBatch() (*Batch, error) {
	b := GetBatch()
	for !b.Full() {
		row, ok, err := r.child.Next()
		if err != nil {
			PutBatch(b)
			return nil, err
		}
		if !ok {
			break
		}
		b.Append(row)
	}
	if b.Len() == 0 {
		PutBatch(b)
		return nil, nil
	}
	return b, nil
}

func (r *rowSource) Close() error { return r.child.Close() }

// RowFromBatch adapts a batch operator into a row operator: the batch→row
// shim that lets batch pipelines feed row consumers (sorts, aggregates,
// result drains). Drained batches are recycled; the row slices handed out
// stay valid because recycling reuses only the batch headers.
type RowFromBatch struct {
	Src BatchOperator

	cur *Batch
	pos int
}

// Open opens the batch source.
func (r *RowFromBatch) Open() error {
	r.cur, r.pos = nil, 0
	return r.Src.Open()
}

// Next emits the next selected row across batches.
func (r *RowFromBatch) Next() ([]types.Value, bool, error) {
	for {
		if r.cur != nil && r.pos < r.cur.Len() {
			row := r.cur.Row(r.pos)
			r.pos++
			return row, true, nil
		}
		if r.cur != nil {
			PutBatch(r.cur)
			r.cur = nil
		}
		b, err := r.Src.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, false, nil
		}
		r.cur, r.pos = b, 0
	}
}

// Close releases the current batch and closes the source.
func (r *RowFromBatch) Close() error {
	if r.cur != nil {
		PutBatch(r.cur)
		r.cur = nil
	}
	return r.Src.Close()
}

// AsBatch unwraps the batch pipeline beneath a RowFromBatch bridge, or
// recognizes an operator that natively speaks batches (ParallelScan). The
// planner uses it to extend batch pipelines (filter, project, join probe)
// instead of bouncing through row shims.
func AsBatch(op Operator) (BatchOperator, bool) {
	switch n := op.(type) {
	case *RowFromBatch:
		return n.Src, true
	case *ParallelScan:
		return n, true
	}
	return nil, false
}

// Vectorized reports whether any part of an operator tree runs
// batch-at-a-time. The planner records it in explain output and the engine
// surfaces it on results.
func Vectorized(op Operator) bool {
	switch n := op.(type) {
	case *RowFromBatch:
		return batchVectorized(n.Src)
	case *ParallelScan:
		return true // gathers through the batched Exchange
	case *Exchange:
		return true
	case *BatchGroupAggregate:
		return true
	case *ParallelGroupAggregate:
		return true
	case *StatAggScan:
		return true
	case *Filter:
		return Vectorized(n.Child)
	case *Project:
		return Vectorized(n.Child)
	case *Sort:
		return Vectorized(n.Child)
	case *Limit:
		return Vectorized(n.Child)
	case *Distinct:
		return Vectorized(n.Child)
	case *Aggregate:
		return Vectorized(n.Child)
	case *GroupAggregate:
		return Vectorized(n.Child)
	case *HashJoin:
		return Vectorized(n.Build) || Vectorized(n.Probe)
	case *NestedLoopJoin:
		return Vectorized(n.Outer) || Vectorized(n.Inner)
	case *Union:
		for _, c := range n.Children {
			if Vectorized(c) {
				return true
			}
		}
	}
	return false
}

// batchVectorized is Vectorized below a RowFromBatch bridge. A batch
// operator is vectorized work, except the two that only carry rows in
// batches: the row→batch shim, and a SemiJoin, which is as vectorized as
// the inputs it was given.
func batchVectorized(op BatchOperator) bool {
	switch n := op.(type) {
	case *rowSource:
		return Vectorized(n.child)
	case *SemiJoin:
		v := batchVectorized(n.Anchor)
		for _, arm := range n.Arms {
			for _, p := range arm.Probes {
				v = v || batchVectorized(p.Src)
			}
		}
		return v
	}
	return true
}
