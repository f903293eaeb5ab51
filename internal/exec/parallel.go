package exec

import (
	"runtime"
	"sync"

	"trac/internal/storage"
	"trac/internal/txn"
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
// goroutine boundary as *Batch values, recycled through the batch pool on
// the consumer side.
//
// What crosses is safe to share: a batch that views a sealed segment points
// at immutable memory every reader shares anyway, and one that owns its
// vectors is handed over whole — the producer never touches it again.
//
// Tuple order across children is nondeterministic, which is fine everywhere
// the planner inserts one: below joins, aggregation, DISTINCT, sorts, and
// set-semantics recency arms.
type Exchange struct {
	Children []BatchOperator

	ch   chan exchMsg
	stop chan struct{}
	err  error
	done bool
}

// Open launches one producer goroutine per child.
func (e *Exchange) Open() error {
	// Two slots per child: a producer scans its next unit while the batch
	// before it waits for the consumer.
	e.ch = make(chan exchMsg, len(e.Children)*2)
	e.stop = make(chan struct{})
	e.err, e.done = nil, false

	var wg sync.WaitGroup
	for _, child := range e.Children {
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
	e.done = true
}

// ParallelScan is a morsel-driven parallel heap scan: Workers goroutines
// share one storage.Morsels partitioning of the heap snapshot, each claiming
// one unit at a time (a sealed segment, or a tail window) and turning
// it into a columnar batch — MVCC visibility, zone-map pruning and the
// pushed-down predicate all applied locally (see unitScan), with no
// synchronization beyond the per-morsel atomic claim. An internal Exchange
// gathers worker batches back into the single-threaded pipeline.
type ParallelScan struct {
	Table  *storage.Table
	Snap   txn.Snapshot
	Kernel Kernel // the predicate; may be nil
	// SegFilter is the predicate's zone-map side, consulted before a sealed
	// segment is read.
	SegFilter *SegmentFilter
	Offset    int // where this table's columns start in the output tuple
	Width     int // total output tuple width (0 means table arity)
	// Need lists the tuple offsets the plan reads; nil carries every column.
	Need []int
	// Workers is the parallel degree; <= 0 selects GOMAXPROCS.
	Workers int

	feed sourceFeed
	ex   *Exchange
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
// through their own machinery (a parallel hash-join build, partial
// aggregation) use this directly instead of Open/NextBatch.
func (s *ParallelScan) BatchPartials() []BatchOperator {
	src := s.Table.Morsels()
	out := make([]BatchOperator, s.Degree())
	feed := s.feed.take()
	for i := range out {
		m := &batchMorselScan{src: src}
		m.scan.reset(s.Table, s.Snap, s.Kernel, s.SegFilter, s.Offset, s.Width, s.Need)
		m.scan.feed = feed
		out[i] = m
	}
	return out
}

// feedSources attaches a semi-join probe's sink for the next run (see
// sourceFeed.attach); every worker of that run hands it source sets.
func (s *ParallelScan) feedSources(col int, sink *probeState) {
	s.feed.attach(s.Table, s.Offset, col, sink)
}

// Open partitions the heap and starts the workers.
func (s *ParallelScan) Open() error {
	s.ex = &Exchange{Children: s.BatchPartials()}
	return s.ex.Open()
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
// claim.
type batchMorselScan struct {
	src  *storage.Morsels
	scan unitScan
}

func (m *batchMorselScan) Open() error { return nil }

func (m *batchMorselScan) NextBatch() (*Batch, error) {
	for !m.scan.done {
		u, ok := m.src.Claim()
		if !ok {
			break
		}
		if b, err := m.scan.batch(u); b != nil || err != nil {
			return b, err
		}
	}
	return nil, nil
}

func (m *batchMorselScan) Close() error { return nil }
