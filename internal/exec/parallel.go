package exec

import (
	"runtime"
	"sync"

	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// exchMsg is one producer→consumer hand-off: a batch of tuples or a terminal
// error.
type exchMsg struct {
	batch *Batch
	err   error
}

// Exchange merges the outputs of concurrently-running children into one
// single-threaded stream — the gather side of a parallel plan fragment.
// Each child runs to exhaustion on its own goroutine; tuples cross the
// goroutine boundary as *Batch values (~BatchSize rows per channel send),
// recycled through the batch pool. Row children (Children) are adapted
// through ToBatch; batch children (BatchChildren) forward their batches
// without repacking.
//
// Children MUST emit retention-safe tuples: the consumer and producer are
// concurrent, so a recycled row buffer would be a data race, not just an
// aliasing hazard. (Batch headers are recycled only after the hand-off, on
// the consumer side, which is safe; the row slices inside are never reused.)
//
// Row order across children is nondeterministic, which is fine everywhere
// the planner inserts one: below joins, aggregation, DISTINCT, sorts, and
// set-semantics recency arms.
//
// An Exchange is consumed either row-at-a-time (Next) or batch-at-a-time
// (NextBatch), not both.
type Exchange struct {
	Children      []Operator
	BatchChildren []BatchOperator

	ch   chan exchMsg
	stop chan struct{}
	cur  *Batch
	pos  int
	err  error
	done bool
}

// Open launches one producer goroutine per child.
func (e *Exchange) Open() error {
	n := len(e.Children) + len(e.BatchChildren)
	e.ch = make(chan exchMsg, n*2)
	e.stop = make(chan struct{})
	e.cur, e.pos, e.err, e.done = nil, 0, nil, false

	var wg sync.WaitGroup
	for _, child := range e.Children {
		wg.Add(1)
		go func(op BatchOperator) {
			defer wg.Done()
			e.produce(op)
		}(ToBatch(child))
	}
	for _, child := range e.BatchChildren {
		wg.Add(1)
		go func(op BatchOperator) {
			defer wg.Done()
			e.produce(op)
		}(child)
	}
	go func() {
		wg.Wait()
		close(e.ch)
	}()
	return nil
}

// produce drains one child into the exchange channel.
func (e *Exchange) produce(op BatchOperator) {
	send := func(m exchMsg) bool {
		select {
		case e.ch <- m:
			return true
		case <-e.stop:
			// The consumer never saw this batch; recycle it here.
			PutBatch(m.batch)
			return false
		}
	}
	if err := op.Open(); err != nil {
		send(exchMsg{err: err})
		return
	}
	defer op.Close()
	for {
		b, err := op.NextBatch()
		if err != nil {
			send(exchMsg{err: err})
			return
		}
		if b == nil {
			return
		}
		if !send(exchMsg{batch: b}) {
			return
		}
	}
}

// Next emits the next tuple from any child.
func (e *Exchange) Next() ([]types.Value, bool, error) {
	if e.err != nil {
		return nil, false, e.err
	}
	for {
		if e.cur != nil && e.pos < e.cur.Len() {
			row := e.cur.Row(e.pos)
			e.pos++
			return row, true, nil
		}
		if e.cur != nil {
			PutBatch(e.cur)
			e.cur = nil
		}
		if e.done {
			return nil, false, nil
		}
		m, ok := <-e.ch
		if !ok {
			e.done = true
			return nil, false, nil
		}
		if m.err != nil {
			e.err = m.err
			e.shutdown()
			return nil, false, m.err
		}
		e.cur, e.pos = m.batch, 0
	}
}

// NextBatch hands the next child batch to the caller (ownership included).
func (e *Exchange) NextBatch() (*Batch, error) {
	if e.err != nil {
		return nil, e.err
	}
	for !e.done {
		m, ok := <-e.ch
		if !ok {
			e.done = true
			break
		}
		if m.err != nil {
			e.err = m.err
			e.shutdown()
			return nil, m.err
		}
		if m.batch.Len() == 0 {
			PutBatch(m.batch) // defensive; producers skip empties
			continue
		}
		return m.batch, nil
	}
	return nil, nil
}

// Close stops producers and drains the channel so their goroutines exit.
func (e *Exchange) Close() error {
	e.shutdown()
	return nil
}

// shutdown signals producers to stop and drains until the channel closes,
// recycling in-flight batches.
func (e *Exchange) shutdown() {
	if e.stop == nil {
		return
	}
	select {
	case <-e.stop:
	default:
		close(e.stop)
	}
	for m := range e.ch {
		PutBatch(m.batch)
	}
	e.stop = nil
	if e.cur != nil {
		PutBatch(e.cur)
		e.cur = nil
	}
	e.done = true
}

// ParallelScan is a morsel-driven parallel heap scan: Workers goroutines
// share one storage.Morsels partitioning of the heap snapshot, each claiming
// fixed-size morsels, applying the MVCC visibility check and the pushed-down
// predicate locally, and accumulating survivors into dense batches — all
// without synchronization beyond the per-morsel atomic claim. An internal
// Exchange gathers worker batches back into the single-threaded pipeline;
// it serves both the row interface (Next) and the batch interface
// (NextBatch).
//
// The predicate is either a fused Kernel (set by the planner's vectorized
// pipelines) or a compiled row Evaluator (Filter); Kernel wins when both
// are set.
//
// By default every emitted tuple is freshly allocated, so rows are safe to
// retain and mutate. Alias mode (planner batch pipelines only) lets workers
// emit heap-aliased rows when the output layout is exactly the table's own
// columns; see the Batch immutability contract.
type ParallelScan struct {
	Table  *storage.Table
	Snap   txn.Snapshot
	Filter Evaluator // may be nil; evaluated against the padded tuple
	Kernel Kernel    // may be nil; preferred over Filter when set
	// SegFilter is the predicate's columnar form for sealed segments (zone
	// map pruning + fused vector loops); workers fall back to Kernel/Filter
	// on tail morsels and on segments when it is nil.
	SegFilter *SegmentFilter
	Offset    int // where this table's columns start in the output tuple
	Width     int // total output tuple width (0 means table arity)
	// Workers is the parallel degree; <= 0 selects GOMAXPROCS.
	Workers int
	// MorselSize overrides storage.DefaultMorselSize (tests).
	MorselSize int
	// Alias permits heap-aliased batch rows (no per-row copy). Only the
	// planner sets it, and only for pipelines that never mutate rows in
	// place.
	Alias bool

	ex *Exchange
}

// Degree returns the effective worker count.
func (s *ParallelScan) Degree() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// BatchPartials snapshots the heap once and returns one per-worker batch
// scan per worker, all sharing the same morsel source. Callers that gather
// through their own machinery (e.g. a parallel hash-join build) use this
// directly instead of Open/NextBatch.
func (s *ParallelScan) BatchPartials() []BatchOperator {
	width := s.Width
	if width == 0 {
		width = s.Table.Schema.NumColumns()
	}
	kernel := s.Kernel
	if kernel == nil {
		kernel = KernelFromEvaluator(s.Filter)
	}
	src := s.Table.Morsels(s.MorselSize)
	n := s.Degree()
	out := make([]BatchOperator, n)
	for i := range out {
		out[i] = &batchMorselScan{
			src: src, table: s.Table, snap: s.Snap, kernel: kernel,
			segf: s.SegFilter, offset: s.Offset, width: width, alias: s.Alias,
		}
	}
	return out
}

// Partials is BatchPartials bridged to the row interface, for callers that
// consume per-worker output tuple-at-a-time.
func (s *ParallelScan) Partials() []Operator {
	bp := s.BatchPartials()
	out := make([]Operator, len(bp))
	for i, b := range bp {
		out[i] = &RowFromBatch{Src: b}
	}
	return out
}

// Open partitions the heap and starts the workers.
func (s *ParallelScan) Open() error {
	s.ex = &Exchange{BatchChildren: s.BatchPartials()}
	return s.ex.Open()
}

// Next emits the next visible, predicate-passing row from any worker.
func (s *ParallelScan) Next() ([]types.Value, bool, error) {
	return s.ex.Next()
}

// NextBatch emits the next worker batch.
func (s *ParallelScan) NextBatch() (*Batch, error) {
	return s.ex.NextBatch()
}

// Close stops the workers.
func (s *ParallelScan) Close() error {
	if s.ex == nil {
		return nil
	}
	err := s.ex.Close()
	s.ex = nil
	return err
}

// batchMorselScan is one worker's view of a shared morsel source: a plain
// single-threaded BatchOperator; concurrency lives entirely in the shared
// claim. Tail morsels are scanned into a scratch batch and compacted by the
// full kernel; sealed-segment morsels take the columnar path (zone-map
// prune, vector-loop narrowing, late materialization, then only the
// predicate's non-fused Rest). Either way survivors are compacted into
// dense output batches, so downstream hand-off cost tracks output (not
// input) cardinality even under selective predicates.
type batchMorselScan struct {
	src    *storage.Morsels
	table  *storage.Table
	snap   txn.Snapshot
	kernel Kernel
	segf   *SegmentFilter
	offset int
	width  int
	alias  bool

	cur    storage.Morsel
	pos    int // cursor into cur.Rows (tail morsels)
	sel    []int
	selPos int
	selbuf []int
	arena  []types.Value
}

func (m *batchMorselScan) Open() error { return nil }

// restKernel is the kernel owed on rows materialized from a narrowed
// segment: the predicate's non-fused remainder, or the full kernel when no
// columnar form exists.
func (m *batchMorselScan) restKernel() Kernel {
	if m.segf != nil {
		return m.segf.Rest
	}
	return m.kernel
}

func (m *batchMorselScan) NextBatch() (*Batch, error) {
	n := m.table.Schema.NumColumns()
	alias := m.alias && m.offset == 0 && m.width == n
	out := GetBatch()
	scratch := GetBatch()
	defer PutBatch(scratch)

	// flush compacts the scratch window with the given kernel and appends
	// survivors to out. Scratch only ever holds rows from one scan unit, so
	// the right kernel (full vs. Rest) is unambiguous.
	flush := func(k Kernel) error {
		if k != nil {
			if err := k(scratch); err != nil {
				return err
			}
		}
		for i := 0; i < scratch.Len(); i++ {
			out.Append(scratch.Row(i))
		}
		scratch.reset()
		return nil
	}
	appendRow := func(r *storage.Row) {
		if alias {
			scratch.Append(r.Values)
			return
		}
		// Padded rows come from a per-worker arena (never pooled, so
		// survivors stay valid after batch recycling); the zero types.Value
		// provides the NULL padding.
		if len(m.arena) < m.width {
			m.arena = make([]types.Value, BatchSize*m.width)
		}
		row := m.arena[:m.width:m.width]
		m.arena = m.arena[m.width:]
		copy(row[m.offset:m.offset+n], r.Values)
		scratch.Append(row)
	}

	for {
		switch {
		case m.cur.Seg != nil && m.selPos < len(m.sel):
			rows := m.cur.Seg.Rows
			for m.selPos < len(m.sel) && !scratch.Full() {
				appendRow(rows[m.sel[m.selPos]])
				m.selPos++
			}
			if err := flush(m.restKernel()); err != nil {
				PutBatch(out)
				return nil, err
			}
			if out.Full() {
				return out, nil
			}
		case m.cur.Seg == nil && m.pos < len(m.cur.Rows):
			for m.pos < len(m.cur.Rows) && !scratch.Full() {
				r := m.cur.Rows[m.pos]
				m.pos++
				if !m.snap.Visible(r) {
					continue
				}
				appendRow(r)
			}
			if scratch.Full() || m.pos >= len(m.cur.Rows) {
				if err := flush(m.kernel); err != nil {
					PutBatch(out)
					return nil, err
				}
				if out.Full() {
					return out, nil
				}
			}
		default:
			cur, ok := m.src.Claim()
			if !ok {
				if out.Len() == 0 {
					PutBatch(out)
					return nil, nil
				}
				return out, nil
			}
			m.cur, m.pos, m.sel, m.selPos = cur, 0, nil, 0
			if cur.Seg == nil {
				continue
			}
			if m.segf != nil && m.segf.Prune(cur.Seg) {
				m.cur = storage.Morsel{}
				continue
			}
			if cap(m.selbuf) < cur.Seg.Len() {
				m.selbuf = make([]int, 0, cur.Seg.Len())
			}
			sel := m.selbuf[:0]
			for i, r := range cur.Seg.Rows {
				if m.snap.Visible(r) {
					sel = append(sel, i)
				}
			}
			if m.segf != nil {
				var err error
				sel, err = m.segf.Narrow(cur.Seg, sel)
				if err != nil {
					PutBatch(out)
					return nil, err
				}
			}
			m.sel = sel
		}
	}
}

func (m *batchMorselScan) Close() error {
	m.cur = storage.Morsel{}
	m.sel = nil
	return nil
}

// ParallelDegree reports the maximum parallel worker count anywhere in an
// operator tree (1 for a fully single-threaded plan). The planner records it
// in explain output and the engine surfaces it on results.
func ParallelDegree(op Operator) int {
	max := 1
	consider := func(children ...Operator) {
		for _, c := range children {
			if c == nil {
				continue
			}
			if d := ParallelDegree(c); d > max {
				max = d
			}
		}
	}
	switch n := op.(type) {
	case *ParallelScan:
		if d := n.Degree(); d > max {
			max = d
		}
	case *Exchange:
		if w := len(n.Children) + len(n.BatchChildren); w > max {
			max = w
		}
		consider(n.Children...)
		for _, c := range n.BatchChildren {
			if d := BatchParallelDegree(c); d > max {
				max = d
			}
		}
	case *RowFromBatch:
		if d := BatchParallelDegree(n.Src); d > max {
			max = d
		}
	case *Filter:
		consider(n.Child)
	case *Project:
		consider(n.Child)
	case *Sort:
		consider(n.Child)
	case *Limit:
		consider(n.Child)
	case *Distinct:
		consider(n.Child)
	case *Aggregate:
		consider(n.Child)
	case *GroupAggregate:
		consider(n.Child)
	case *BatchGroupAggregate:
		if d := BatchParallelDegree(n.Src); d > max {
			max = d
		}
	case *ParallelGroupAggregate:
		if d := n.Scan.Degree(); d > max {
			max = d
		}
	case *StatAggScan:
		if d := n.Degree(); d > max {
			max = d
		}
	case *HashJoin:
		consider(n.Build, n.Probe)
	case *NestedLoopJoin:
		consider(n.Outer, n.Inner)
	case *Union:
		consider(n.Children...)
	}
	return max
}

// BatchParallelDegree is ParallelDegree over a batch operator subtree.
func BatchParallelDegree(op BatchOperator) int {
	switch n := op.(type) {
	case *ParallelScan:
		return n.Degree()
	case *BatchFilter:
		return BatchParallelDegree(n.Child)
	case *BatchProject:
		return BatchParallelDegree(n.Child)
	case *BatchHashJoin:
		d := ParallelDegree(n.Build)
		if p := BatchParallelDegree(n.Probe); p > d {
			d = p
		}
		return d
	case *Exchange:
		return ParallelDegree(n)
	case *rowSource:
		return ParallelDegree(n.child)
	case *SemiJoin:
		d := BatchParallelDegree(n.Anchor)
		for _, arm := range n.Arms {
			for _, p := range arm.Probes {
				if pd := BatchParallelDegree(p.Src); pd > d {
					d = pd
				}
			}
		}
		return d
	}
	return 1
}
