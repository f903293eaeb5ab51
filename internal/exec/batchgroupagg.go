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

// grouper is an aggregation operator: BatchGroupAggregate,
// ParallelGroupAggregate or StatAggScan. groups does what its Open does up
// to the group table, and hands the table over instead of emitting it.
type grouper interface {
	groups() (*aggTable, error)
}

// emitGroups is the Open of an aggregation operator: its groups, held to be
// emitted.
func (h *held) emitGroups(g grouper) error {
	t, err := g.groups()
	if err == nil {
		h.out, err = t.emit()
	}
	return err
}

// Open drains the source batch-at-a-time and computes all groups.
func (g *BatchGroupAggregate) Open() error { return g.emitGroups(g) }

func (g *BatchGroupAggregate) groups() (*aggTable, error) {
	t := newAggTable(g.Keys, g.KeyCols, g.Specs, g.ArgCols)
	return t, t.observeAll(g.Src)
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
// tables are merged once on the gather side (mergeParts). Merging in
// worker-index order keeps output order deterministic for a given morsel
// claim order; SQL imposes no group order, and the planner's ORDER BY sits
// above.
//
// Partial merge goes through the same overflow-checked accumulation as the
// scan's own input, so integer SUM/AVG stay exact under parallelism. (Float
// sums remain order-sensitive — merging partials can differ from serial
// accumulation in the low bits, exactly as any parallel aggregation does.)
type ParallelGroupAggregate struct {
	Scan    *ParallelScan
	Keys    []Evaluator
	KeyCols []int
	Specs   []AggSpec
	ArgCols []int

	held // the groups
}

// Open fans workers over the scan's morsel partials and merges their tables.
func (g *ParallelGroupAggregate) Open() error { return g.emitGroups(g) }

func (g *ParallelGroupAggregate) groups() (*aggTable, error) {
	parts := g.Scan.BatchPartials()
	return mergeParts(nil, len(parts), func(i int) (*aggTable, error) {
		t := newAggTable(g.Keys, g.KeyCols, g.Specs, g.ArgCols)
		return t, t.observeAll(parts[i])
	})
}

// mergeParts is partial aggregation's gather: part(i) builds the table of
// part i, for n parts on a goroutine each, and the tables merge in part
// order, so a group first seen in an earlier part comes first. They merge
// into t, or, when t is nil, into the first part's table; the merged table
// is returned.
func mergeParts(t *aggTable, n int, part func(i int) (*aggTable, error)) (*aggTable, error) {
	tabs := make([]*aggTable, n)
	if err := fanOut(n, func(i int) (err error) {
		tabs[i], err = part(i)
		return err
	}); err != nil {
		return nil, err
	}
	if t == nil {
		t, tabs = tabs[0], tabs[1:]
	}
	for _, o := range tabs {
		if err := t.mergeTable(o); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// fanOut runs fn(i) for every i below n, each on a goroutine of its own when
// there are several, waits for all of them and returns the first error in
// index order.
func fanOut(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// GatherGroups is the gather of an aggregate scattered across shards: parts
// are plan roots over one grouped block's aggregation operator, one per
// shard (planner.PlanGroups). Each part hands its group table over and is
// closed, on a goroutine of its own; the tables merge as a parallel
// aggregation merges its workers' (mergeParts), in part order. The merged
// groups come back as the operator would emit them: one batch the caller
// owns, a tuple [keys..., aggregates...] per group.
func GatherGroups(parts []BatchOperator) (*Batch, error) {
	t, err := mergeParts(nil, len(parts), func(i int) (*aggTable, error) {
		op := parts[i]
		for w, ok := op.(wrapper); ok; w, ok = op.(wrapper) {
			op = w.Unwrap()
		}
		t, err := op.(grouper).groups()
		if cerr := parts[i].Close(); err == nil {
			err = cerr
		}
		return t, err
	})
	if err != nil {
		return nil, err
	}
	return t.emit()
}
