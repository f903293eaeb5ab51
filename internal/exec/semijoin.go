package exec

import (
	"slices"
	"sync"

	"trac/internal/types"
)

// SemiJoin emits each row of its Anchor input at most once: a row qualifies
// when, for some arm, it passes the arm's Kernel and every one of the arm's
// probes holds a row that joins it. It is the physical form of a SELECT
// DISTINCT block (or a UNION of such blocks) whose output columns all come
// from one relation: every other relation is existential, so no joined
// tuple is ever built and the work is bounded by the inputs, not by the
// join's output.
//
// The anchor is collected first, as one columnar batch; each probe then
// streams through against a key index over the anchor positions still in
// play — keys read straight off the probe's key vectors — and is closed the
// moment every one of them is marked: a probe over a table that grows with
// every poll costs what it takes to cover the anchor, not what the table
// holds. Arms run in the order given and skip tuples an earlier arm already
// emitted; once every anchor tuple is emitted the remaining arms are never
// opened. The planner orders arms and probes cheapest first.
//
// A probe that cannot cover the anchor — a source that never wrote to the
// probed table — would read the table to its end to prove it. When the
// probe's one key is the probed table's source column and there is no
// Residual, a heap scan feeding it (BatchScan, ParallelScan) hands it a
// segment's source set instead of the segment's rows — a sealed segment's,
// or a full tail window's — where the set says exactly which keys the rows
// hold (unitScan.fromSources): the probe marks those keys' candidates from
// the set, and only the partial last window and the units the sets cannot
// stand for are read. The metadata
// phase is that hook on the one scan body, against the one key index.
//
// The output is the anchor batch itself with Sel narrowed to the qualifying
// positions (no projection, no merged tuple), in anchor order. Two anchor
// tuples may still project alike, so the planner keeps a BatchDistinct above
// the projection.
type SemiJoin struct {
	Anchor BatchOperator
	Arms   []SemiArm

	held   // the anchor, narrowed
	merged []types.Value
	buf    []byte
	st     probeState // the probe running now

	// Per anchor position: emitted by some arm; and the running arm's
	// candidates, a selection over the anchor batch. Both are sized to the
	// anchor and kept, zeroed, from one run to the next up to keptAnchor
	// positions.
	done []bool
	cand []int
}

// SemiArm is one disjunct of a SemiJoin: Kernel AND every probe.
type SemiArm struct {
	// Kernel narrows the anchor batch's selection to the tuples the arm's
	// own anchor predicate passes (CompileKernel over the anchor's layout);
	// nil passes every tuple.
	Kernel Kernel
	Probes []*SemiProbe
}

// SemiProbe is one existential input. With keys, an anchor tuple matches a
// probe tuple when the key values are equal (NULL keys never match) and the
// Residual, if any, holds on the merged tuple. Without keys every probe
// tuple is a candidate for every anchor tuple: with no Residual either, the
// first probe tuple marks them all — the existence probe of a disconnected
// join-graph component.
type SemiProbe struct {
	Src                   BatchOperator
	AnchorKeys, ProbeKeys []Evaluator
	// AnchorCols/ProbeCols hold, per key, the tuple offset on that side when
	// the key is a bare column (-1 = evaluate the key over the boxed tuple);
	// nil evaluates every key.
	AnchorCols, ProbeCols []int
	Residual              Evaluator
	// The Residual's merged tuple is Width wide, the width of the probe's
	// own tuples; the anchor's columns are boxed into it at AnchorOffset.
	AnchorOffset, Width int

	// Probed counts the probe tuples examined by the last execution;
	// MetaSegments the sealed segments and full tail windows it took from
	// their source sets without reading them; Exhausted reports whether it reached the end of
	// the probe side with candidates left unmarked rather than stopping once
	// every anchor tuple was marked. All three are reset by SemiJoin.Open
	// and stay zero for a probe that was never opened.
	Probed       int
	MetaSegments int
	Exhausted    bool
}

// sourceScan is a heap scan that can feed a probe source sets (sourceFeed).
type sourceScan interface {
	feedSources(col int, sink *probeState)
}

// feedSources attaches st to the probe's scan, for its next run, as the sink
// of the source sets of the segments it need not read — when the probe
// qualifies: one key, a bare column of the probe tuple (the scan checks it
// is the scanned table's TEXT source column), and no Residual (a source set
// says which keys a segment holds, nothing about the rest of their rows).
func (p *SemiProbe) feedSources(st *probeState) {
	if src, ok := p.Src.(sourceScan); ok && len(p.ProbeKeys) == 1 && p.Residual == nil && p.ProbeCols != nil && p.ProbeCols[0] >= 0 {
		src.feedSources(p.ProbeCols[0], st)
	}
}

// Open collects the anchor, runs the arms and leaves the narrowed anchor
// ready for NextBatch. Every input is closed again before Open returns.
func (j *SemiJoin) Open() error {
	for ai := range j.Arms {
		for _, p := range j.Arms[ai].Probes {
			p.Probed, p.MetaSegments, p.Exhausted = 0, 0, false
		}
	}
	anchor, err := DrainBatch(j.Anchor)
	if err != nil || anchor == nil {
		return err
	}
	if err := j.run(anchor); err != nil || anchor.Len() == 0 {
		PutBatch(anchor)
		return err
	}
	j.out = anchor
	return nil
}

// Close drops the result if nobody took it, the last merged tuple and what
// the run left in the position buffers.
func (j *SemiJoin) Close() error {
	j.merged = recycled(j.merged, keptScratch)
	j.done, j.cand = recycled(j.done, keptAnchor), recycled(j.cand, keptAnchor)
	return j.held.Close()
}

// emptyLike returns an empty batch of b's width owning an empty vector of
// the same kind for each column b carries.
func emptyLike(b *Batch) *Batch {
	all := GetBatch()
	all.Shape(len(b.Cols), 0)
	for c, cv := range b.Cols {
		if cv != nil {
			all.Cols[c] = all.NewVec(cv.Kind)
		}
	}
	return all
}

// absorb appends the selected tuples of b, a batch of all's width, to the
// vectors all owns, and recycles b. The caller selects the result.
func (all *Batch) absorb(b *Batch) {
	for c, cv := range b.Cols {
		if cv != nil {
			vecGather(all.Cols[c], cv, b.Sel)
		}
	}
	all.n += b.Len()
	PutBatch(b)
}

// run narrows the anchor's selection to the positions some arm qualifies.
// An arm's candidates are the positions no earlier arm emitted, narrowed by
// its kernel over the anchor batch and then by each of its probes.
func (j *SemiJoin) run(anchor *Batch) error {
	j.done = slices.Grow(j.done[:0], anchor.n)[:anchor.n]
	clear(j.done)
	all, remaining := anchor.Sel, anchor.Len()
	for ai := range j.Arms {
		if remaining == 0 {
			break
		}
		arm := &j.Arms[ai]
		j.cand = slices.Grow(j.cand[:0], remaining)
		for _, pos := range all {
			if !j.done[pos] {
				j.cand = append(j.cand, pos)
			}
		}
		cand := j.cand
		if arm.Kernel != nil {
			anchor.Sel = cand
			err := arm.Kernel(anchor)
			cand, anchor.Sel = anchor.Sel, all
			if err != nil {
				return err
			}
		}
		for _, p := range arm.Probes {
			if len(cand) == 0 {
				break
			}
			var err error
			if cand, err = j.runProbe(p, anchor, cand); err != nil {
				return err
			}
		}
		for _, pos := range cand {
			j.done[pos] = true
		}
		remaining -= len(cand)
	}
	sel := all[:0]
	for _, pos := range all {
		if j.done[pos] {
			sel = append(sel, pos)
		}
	}
	anchor.Sel = sel
	return nil
}

// probeState is the bookkeeping of one probe execution: which candidates
// are marked, and for keyed probes the index of the candidates' keys (its
// ids index into cand). mu guards marking: the workers of a parallel scan
// hand over source sets (markSources) while the probe's own goroutine marks
// from batches. A SemiJoin runs its probes one at a time through one state,
// which lives as long as the operator: the scan it feeds holds it.
type probeState struct {
	mu       sync.Mutex
	probe    *SemiProbe
	anchor   *Batch
	cand     []int
	mark     []bool
	unmarked int // candidates that can still be marked
	idx      *keyIndex
	buf      *[]byte
	key      [1]types.Value
}

// runProbe streams one probe against the candidate anchor positions and
// returns the candidates it marked, in order. The probe is closed as soon as
// no unmarked candidate is left, whether or not it was exhausted.
func (j *SemiJoin) runProbe(p *SemiProbe, anchor *Batch, cand []int) ([]int, error) {
	st := &j.st
	st.probe, st.anchor, st.cand, st.unmarked, st.buf = p, anchor, cand, len(cand), &j.buf
	st.mark = slices.Grow(st.mark[:0], len(cand))[:len(cand)]
	clear(st.mark)
	defer st.release()
	if len(p.AnchorKeys) > 0 {
		if err := j.indexKeys(p, st); err != nil {
			return nil, err
		}
	}
	if st.unmarked > 0 {
		p.feedSources(st)
		if err := p.Src.Open(); err != nil {
			return nil, err
		}
		err := j.stream(p, st)
		if cerr := p.Src.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	marked := cand[:0]
	for ci, pos := range cand {
		if st.mark[ci] {
			marked = append(marked, pos)
		}
	}
	return marked, nil
}

// release drops what the state holds of the probe run, keeping the mark
// vector, zeroed, for the next as SemiJoin keeps its position buffers.
func (st *probeState) release() {
	st.probe, st.anchor, st.cand, st.idx = nil, nil, nil, nil
	st.mark = recycled(st.mark, keptAnchor)
	st.key[0] = types.Null
}

// indexKeys files the candidates under the probe's anchor keys. Candidates
// with a NULL key can never be marked and are left out of the count the
// early stop watches.
func (j *SemiJoin) indexKeys(p *SemiProbe, st *probeState) error {
	st.idx = newKeyIndex(len(p.AnchorKeys), len(st.cand), len(st.cand))
	st.unmarked = 0
	vals := make([]types.Value, len(p.AnchorKeys))
	for ci, pos := range st.cand {
		null, err := st.anchor.keyValues(vals, p.AnchorCols, p.AnchorKeys, pos)
		if err != nil {
			return err
		}
		if null {
			continue
		}
		st.unmarked++
		st.idx.add(int32(ci), vals, &j.buf)
	}
	return nil
}

// stream pulls probe batches until every candidate is marked or the probe
// side ends.
func (j *SemiJoin) stream(p *SemiProbe, st *probeState) error {
	for st.left() {
		b, err := p.Src.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			p.Exhausted = st.left()
			return nil
		}
		st.mu.Lock()
		err = j.probeBatch(p, st, b)
		st.mu.Unlock()
		PutBatch(b)
		if err != nil {
			return err
		}
	}
	return nil
}

// left reports whether a candidate can still be marked.
func (st *probeState) left() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.unmarked > 0
}

// markSources marks the candidates whose key is one of a segment's sources,
// taken from its source set in place of its rows; it reports whether a
// candidate is left.
func (st *probeState) markSources(sources []string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.probe.MetaSegments++
	for _, s := range sources {
		if st.unmarked == 0 {
			break
		}
		st.key[0] = types.NewString(s)
		for ci := st.idx.find(st.key[:], st.buf); ci >= 0; ci = st.idx.next[ci] {
			if !st.mark[ci] {
				st.mark[ci] = true
				st.unmarked--
			}
		}
	}
	return st.unmarked > 0
}

// probeBatch marks the candidates the batch's tuples join, stopping
// mid-batch once none is left.
func (j *SemiJoin) probeBatch(p *SemiProbe, st *probeState, b *Batch) error {
	if st.idx == nil {
		for _, pos := range b.Sel {
			if st.unmarked == 0 {
				break
			}
			p.Probed++
			for ci := range st.cand {
				if err := j.tryMark(p, st, int32(ci), b, pos); err != nil {
					return err
				}
			}
		}
		return nil
	}
	examined, err := st.idx.probe(b, p.ProbeCols, p.ProbeKeys, &j.buf, func(pos int, head int32) (bool, error) {
		for ci := head; ci >= 0; ci = st.idx.next[ci] {
			if err := j.tryMark(p, st, ci, b, pos); err != nil {
				return false, err
			}
		}
		return st.unmarked > 0, nil
	})
	p.Probed += examined
	return err
}

// tryMark marks candidate ci if it is unmarked and the residual (checked on
// the merged tuple, before marking) holds against the probe tuple at pos.
func (j *SemiJoin) tryMark(p *SemiProbe, st *probeState, ci int32, b *Batch, pos int) error {
	if st.mark[ci] {
		return nil
	}
	if p.Residual != nil {
		if cap(j.merged) < p.Width {
			j.merged = make([]types.Value, p.Width)
		}
		// Regions other probes wrote earlier may be stale; this residual
		// only reads the anchor's and its own probe's columns.
		merged := j.merged[:p.Width]
		for c, cv := range b.Cols {
			if cv != nil {
				merged[c] = cv.Value(pos)
			}
		}
		for c, cv := range st.anchor.Cols {
			if cv != nil {
				merged[p.AnchorOffset+c] = cv.Value(st.cand[ci])
			}
		}
		ok, err := EvalPredicate(p.Residual, merged)
		if err != nil || !ok {
			return err
		}
	}
	st.mark[ci] = true
	st.unmarked--
	return nil
}
