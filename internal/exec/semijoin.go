package exec

import "trac/internal/types"

// SemiJoin emits each row of its Anchor input at most once: a row qualifies
// when, for some arm, it passes the arm's Filter and every one of the arm's
// probes holds a row that joins it. It is the physical form of a SELECT
// DISTINCT block (or a UNION of such blocks) whose output columns all come
// from one relation: every other relation is existential, so no joined
// tuple is ever built and the work is bounded by the inputs, not by the
// join's output.
//
// The anchor is drained first; each probe then streams through the batch
// bridge against a hash table over the anchor rows still in play, and is
// closed the moment every one of them is marked — a probe over a table that
// grows with every poll costs what it takes to cover the anchor, not what
// the table holds. Arms run in the order given and skip rows an earlier arm
// already emitted; once every anchor row is emitted the remaining arms are
// never opened. The planner orders arms and probes cheapest first.
//
// Anchor rows are emitted as they arrived (no projection, no merged tuple),
// in anchor order. Two anchor rows may still project to the same tuple, so
// the planner keeps a Distinct above the projection.
type SemiJoin struct {
	Anchor BatchOperator
	Arms   []SemiArm

	out     [][]types.Value
	pos     int
	scratch []types.Value
	buf     []byte
}

// SemiArm is one disjunct of a SemiJoin: Filter AND every probe.
type SemiArm struct {
	Filter Evaluator // over an anchor row; nil passes every row
	Probes []*SemiProbe
}

// SemiProbe is one existential input. With keys, an anchor row matches a
// probe row when the key values are equal (NULL keys never match) and the
// Residual, if any, holds on the merged tuple. Without keys every probe row
// is a candidate for every anchor row: with no Residual either, the first
// probe row marks them all — the existence probe of a disconnected
// join-graph component.
type SemiProbe struct {
	Src                   BatchOperator
	AnchorKeys, ProbeKeys []Evaluator
	Residual              Evaluator
	// The Residual's merged tuple is Width wide; anchor columns start at
	// AnchorOffset and a probe row's at ProbeOffset (0 for full-width rows,
	// the binding's offset for a narrow scan).
	AnchorOffset, ProbeOffset, Width int

	// Probed counts the probe rows examined by the last execution;
	// Exhausted reports whether it read the probe side to its end rather
	// than stopping once every anchor row was marked. Both are reset by
	// SemiJoin.Open and stay zero for a probe that was never opened.
	Probed    int
	Exhausted bool
}

// Open drains the anchor, runs the arms and leaves the qualifying rows ready
// for NextBatch. Every input is closed again before Open returns.
func (j *SemiJoin) Open() error {
	j.out, j.pos = nil, 0
	for ai := range j.Arms {
		for _, p := range j.Arms[ai].Probes {
			p.Probed, p.Exhausted = 0, false
		}
	}
	rows, err := drainBatches(j.Anchor)
	if err != nil {
		return err
	}
	done := make([]bool, len(rows))
	remaining := len(rows)
	for ai := range j.Arms {
		if remaining == 0 {
			break
		}
		arm := &j.Arms[ai]
		cand := make([]int32, 0, remaining)
		for i, row := range rows {
			if done[i] {
				continue
			}
			ok, err := EvalPredicate(arm.Filter, row)
			if err != nil {
				return err
			}
			if ok {
				cand = append(cand, int32(i))
			}
		}
		for _, p := range arm.Probes {
			if len(cand) == 0 {
				break
			}
			if cand, err = j.runProbe(p, rows, cand); err != nil {
				return err
			}
		}
		for _, i := range cand {
			done[i] = true
		}
		remaining -= len(cand)
	}
	out := rows[:0]
	for i, row := range rows {
		if done[i] {
			out = append(out, row)
		}
	}
	j.out = out
	return nil
}

// drainBatches runs a batch operator to completion and collects its rows.
func drainBatches(op BatchOperator) ([][]types.Value, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var rows [][]types.Value
	for {
		b, err := op.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rows, nil
		}
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
		}
		PutBatch(b)
	}
}

// probeState is the bookkeeping of one probe execution: which candidates
// are marked, and for keyed probes the hash table over the candidates. A
// key's chain starts at head[key] and follows next; both index into cand.
type probeState struct {
	rows     [][]types.Value
	cand     []int32
	mark     []bool
	unmarked int // candidates that can still be marked
	head     map[string]int32
	next     []int32
}

// runProbe streams one probe against the candidate anchor rows and returns
// the candidates it marked, in order. The probe is closed as soon as no
// unmarked candidate is left, whether or not it was exhausted.
func (j *SemiJoin) runProbe(p *SemiProbe, rows [][]types.Value, cand []int32) ([]int32, error) {
	st := &probeState{rows: rows, cand: cand, mark: make([]bool, len(cand)), unmarked: len(cand)}
	if len(p.AnchorKeys) > 0 {
		if err := j.buildKeys(p, st); err != nil {
			return nil, err
		}
	}
	if st.unmarked > 0 {
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
	for ci, i := range cand {
		if st.mark[ci] {
			marked = append(marked, i)
		}
	}
	return marked, nil
}

// buildKeys hashes the candidates on the probe's anchor keys. Candidates
// with a NULL key can never be marked and are left out of the count the
// early stop watches.
func (j *SemiJoin) buildKeys(p *SemiProbe, st *probeState) error {
	st.head = make(map[string]int32, len(st.cand))
	st.next = make([]int32, len(st.cand))
	st.unmarked = 0
	for ci, i := range st.cand {
		key, null, err := evalKeys(p.AnchorKeys, st.rows[i], j.buf[:0])
		j.buf = key
		if err != nil {
			return err
		}
		if null {
			continue
		}
		st.unmarked++
		st.next[ci] = -1
		if h, ok := st.head[string(key)]; ok {
			// Splice behind the head so the map is written once per key.
			st.next[ci], st.next[h] = st.next[h], int32(ci)
		} else {
			st.head[string(key)] = int32(ci)
		}
	}
	return nil
}

// stream pulls probe batches until every candidate is marked or the probe
// side ends.
func (j *SemiJoin) stream(p *SemiProbe, st *probeState) error {
	for st.unmarked > 0 {
		b, err := p.Src.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			p.Exhausted = true
			return nil
		}
		err = j.probeBatch(p, st, b)
		PutBatch(b)
		if err != nil {
			return err
		}
	}
	return nil
}

// probeBatch marks the candidates the batch's rows join, stopping mid-batch
// once none is left.
func (j *SemiJoin) probeBatch(p *SemiProbe, st *probeState, b *Batch) error {
	for i := 0; i < b.Len() && st.unmarked > 0; i++ {
		probe := b.Row(i)
		p.Probed++
		if st.head == nil {
			for ci := range st.cand {
				if err := j.tryMark(p, st, int32(ci), probe); err != nil {
					return err
				}
			}
			continue
		}
		key, null, err := evalKeys(p.ProbeKeys, probe, j.buf[:0])
		j.buf = key
		if err != nil {
			return err
		}
		if null {
			continue
		}
		h, ok := st.head[string(key)]
		if !ok {
			continue
		}
		for ci := h; ci >= 0; ci = st.next[ci] {
			if err := j.tryMark(p, st, ci, probe); err != nil {
				return err
			}
		}
	}
	return nil
}

// tryMark marks candidate ci if it is unmarked and the residual (checked on
// the merged tuple, before marking) holds against the probe row.
func (j *SemiJoin) tryMark(p *SemiProbe, st *probeState, ci int32, probe []types.Value) error {
	if st.mark[ci] {
		return nil
	}
	if p.Residual != nil {
		if cap(j.scratch) < p.Width {
			j.scratch = make([]types.Value, p.Width)
		}
		// Regions other probes wrote earlier may be stale; this residual
		// only reads the anchor's and its own probe's columns.
		merged := j.scratch[:p.Width]
		copy(merged[p.ProbeOffset:], probe)
		copy(merged[p.AnchorOffset:], st.rows[st.cand[ci]])
		ok, err := EvalPredicate(p.Residual, merged)
		if err != nil || !ok {
			return err
		}
	}
	st.mark[ci] = true
	st.unmarked--
	return nil
}

// NextBatch emits the next window of qualifying anchor rows.
func (j *SemiJoin) NextBatch() (*Batch, error) {
	if j.pos >= len(j.out) {
		return nil, nil
	}
	b := GetBatch()
	for j.pos < len(j.out) && !b.Full() {
		b.Append(j.out[j.pos])
		j.pos++
	}
	return b, nil
}

// Close drops the result; the inputs were closed by Open.
func (j *SemiJoin) Close() error {
	j.out = nil
	return nil
}
