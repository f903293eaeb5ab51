package exec

import "trac/internal/types"

// GroupAggregate implements hash aggregation with GROUP BY over the
// tuple-at-a-time Operator interface. Its output tuple is [key values...,
// aggregate values...]; a projection above maps select items onto those
// positions. With no keys it behaves like SQL's global aggregation: exactly
// one output row even for empty input. The accumulation machinery is the
// shared aggTable, so SUM/AVG exactness and NULL handling are identical to
// the vectorized and stat-pushdown operators.
type GroupAggregate struct {
	Child Operator
	Keys  []Evaluator
	Specs []AggSpec

	out [][]types.Value
	pos int
}

// Open consumes the child and computes all groups.
func (g *GroupAggregate) Open() error {
	if err := g.Child.Open(); err != nil {
		return err
	}
	defer g.Child.Close()

	tab := newAggTable(g.Keys, nil, g.Specs, nil)
	for {
		row, ok, err := g.Child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := tab.observeRow(row); err != nil {
			return err
		}
	}

	out, err := tab.emit(len(g.Keys))
	if err != nil {
		return err
	}
	g.out = out
	g.pos = 0
	return nil
}

// Bound is the number of groups left to emit.
func (g *GroupAggregate) Bound() (int, bool) { return len(g.out) - g.pos, true }

// Next emits the next group row.
func (g *GroupAggregate) Next() ([]types.Value, bool, error) {
	if g.pos >= len(g.out) {
		return nil, false, nil
	}
	r := g.out[g.pos]
	g.pos++
	return r, true, nil
}

// Close releases group state.
func (g *GroupAggregate) Close() error {
	g.out = nil
	return nil
}
