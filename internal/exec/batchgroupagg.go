package exec

import "sync"

// BatchGroupAggregate is hash aggregation consuming columnar batches
// directly: group keys are resolved per selected position (read off the key
// vector when a key is a bare column), then each AggSpec runs a
// type-specialized accumulation kernel over its argument vector — no tuple
// is boxed on the way in. The output is one batch, a tuple [keys...,
// aggregates...] per group in first-seen group order. With no keys it is
// SQL's global aggregation: exactly one tuple, even over empty input.
type BatchGroupAggregate struct {
	Src  BatchOperator
	Keys []Evaluator
	// KeyCols holds a tuple offset per key when the key is a bare column
	// (-1 = evaluate Keys[i]); nil disables the fast path entirely.
	KeyCols []int
	Specs   []AggSpec
	// ArgCols mirrors KeyCols for the aggregate arguments: the tuple offset
	// whose vector the typed kernel reads; -1 (or a nil slice) falls back to
	// Specs[i].Arg.
	ArgCols []int

	held // the groups
}

// Open drains the source batch-at-a-time and computes all groups.
func (g *BatchGroupAggregate) Open() error {
	tab := newAggTable(g.Keys, g.KeyCols, g.Specs, g.ArgCols)
	if err := tab.observeAll(g.Src); err != nil {
		return err
	}
	var err error
	g.out, err = tab.emit(len(g.Keys))
	return err
}

// observeAll opens a batch source, accumulates everything it produces and
// closes it again.
func (t *aggTable) observeAll(src BatchOperator) error {
	if err := src.Open(); err != nil {
		return err
	}
	defer src.Close()
	for {
		b, err := src.NextBatch()
		if err != nil || b == nil {
			return err
		}
		err = t.observeBatch(b)
		PutBatch(b)
		if err != nil {
			return err
		}
	}
}

// ParallelGroupAggregate is morsel-parallel partial aggregation: each scan
// worker drains its share of the morsel source into a thread-local aggTable
// (no synchronization beyond the per-morsel atomic claim), and the partial
// tables are merged once on the gather side. Merging in worker-index order
// with first-seen-preserving mergeTable keeps output order deterministic for
// a given morsel claim order; SQL imposes no group order, and the planner's
// ORDER BY sits above.
//
// Partial merge goes through the same overflow-checked accumulation as the
// scan's own input, so integer SUM/AVG stay exact under parallelism. (Float sums remain
// order-sensitive — merging partials can differ from serial accumulation in
// the low bits, exactly as any parallel aggregation does.)
type ParallelGroupAggregate struct {
	Scan    *ParallelScan
	Keys    []Evaluator
	KeyCols []int
	Specs   []AggSpec
	ArgCols []int

	held // the groups
}

// Open fans workers over the scan's morsel partials and merges their tables.
func (g *ParallelGroupAggregate) Open() error {
	partials := g.Scan.BatchPartials()
	tabs := make([]*aggTable, len(partials))
	errs := make([]error, len(partials))
	var wg sync.WaitGroup
	for i, part := range partials {
		wg.Add(1)
		go func(i int, op BatchOperator) {
			defer wg.Done()
			tabs[i] = newAggTable(g.Keys, g.KeyCols, g.Specs, g.ArgCols)
			errs[i] = tabs[i].observeAll(op)
		}(i, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	merged := newAggTable(g.Keys, g.KeyCols, g.Specs, g.ArgCols)
	for _, tab := range tabs {
		if err := merged.mergeTable(tab); err != nil {
			return err
		}
	}
	var err error
	g.out, err = merged.emit(len(g.Keys))
	return err
}
