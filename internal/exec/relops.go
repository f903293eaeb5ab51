package exec

import (
	"sort"

	"trac/internal/sqlparser"
	"trac/internal/types"
)

// Filter drops tuples whose predicate is not TRUE.
type Filter struct {
	Child Operator
	Pred  Evaluator
}

// Open opens the child.
func (f *Filter) Open() error { return f.Child.Open() }

// Next emits the next passing tuple.
func (f *Filter) Next() ([]types.Value, bool, error) {
	for {
		row, ok, err := f.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		pass, err := EvalPredicate(f.Pred, row)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return row, true, nil
		}
	}
}

// Close closes the child.
func (f *Filter) Close() error { return f.Child.Close() }

// Project computes output expressions from input tuples.
type Project struct {
	Child Operator
	Exprs []Evaluator
}

// Open opens the child.
func (p *Project) Open() error { return p.Child.Open() }

// Next emits the next projected tuple.
func (p *Project) Next() ([]types.Value, bool, error) {
	row, ok, err := p.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make([]types.Value, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i], err = e(row)
		if err != nil {
			return nil, false, err
		}
	}
	return out, true, nil
}

// Close closes the child.
func (p *Project) Close() error { return p.Child.Close() }

// AggSpec describes one aggregate output.
type AggSpec struct {
	Func sqlparser.FuncName
	Star bool      // COUNT(*)
	Arg  Evaluator // nil when Star
}

// Aggregate computes ungrouped aggregates over its entire input, emitting
// exactly one row. (The TRAC query model — single SPJ block — needs no
// GROUP BY; recency statistics are computed by the report layer.)
type Aggregate struct {
	Child Operator
	Specs []AggSpec

	done bool
}

// Open opens the child.
func (a *Aggregate) Open() error {
	a.done = false
	return a.Child.Open()
}

// Next computes and emits the single aggregate row.
func (a *Aggregate) Next() ([]types.Value, bool, error) {
	if a.done {
		return nil, false, nil
	}
	a.done = true

	tab := newAggTable(nil, nil, a.Specs, nil, nil)
	for {
		row, ok, err := a.Child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		if err := tab.observeRow(row); err != nil {
			return nil, false, err
		}
	}
	rows, err := tab.emit(0)
	if err != nil {
		return nil, false, err
	}
	return rows[0], true, nil
}

// Close closes the child.
func (a *Aggregate) Close() error { return a.Child.Close() }

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr Evaluator
	Desc bool
}

// Sort materializes and orders its input.
type Sort struct {
	Child Operator
	Keys  []SortKey

	rows [][]types.Value
	pos  int
}

// Open materializes and sorts the input. Sort keys are precomputed once
// per row into a single contiguous buffer (decorate-sort-undecorate), so
// the comparator touches only the flat key array — no per-comparison
// expression evaluation and no per-row key allocation.
func (s *Sort) Open() error {
	rows, err := Drain(s.Child)
	if err != nil {
		return err
	}
	nk := len(s.Keys)
	keys := make([]types.Value, len(rows)*nk)
	for i, row := range rows {
		for j, k := range s.Keys {
			keys[i*nk+j], err = k.Expr(row)
			if err != nil {
				return err
			}
		}
	}
	perm := make([]int, len(rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool {
		ki, kj := keys[perm[i]*nk:], keys[perm[j]*nk:]
		for k := 0; k < nk; k++ {
			a, b := ki[k], kj[k]
			if types.Less(a, b) {
				return !s.Keys[k].Desc
			}
			if types.Less(b, a) {
				return s.Keys[k].Desc
			}
		}
		return false
	})
	s.rows = make([][]types.Value, len(rows))
	for i, p := range perm {
		s.rows[i] = rows[p]
	}
	s.pos = 0
	return nil
}

// Next emits rows in sorted order.
func (s *Sort) Next() ([]types.Value, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

// Close releases the sorted buffer.
func (s *Sort) Close() error {
	s.rows = nil
	return nil
}

// Limit caps output cardinality.
type Limit struct {
	Child Operator
	N     int64

	emitted int64
}

// Open opens the child.
func (l *Limit) Open() error {
	l.emitted = 0
	return l.Child.Open()
}

// Next emits up to N rows.
func (l *Limit) Next() ([]types.Value, bool, error) {
	if l.emitted >= l.N {
		return nil, false, nil
	}
	row, ok, err := l.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.emitted++
	return row, true, nil
}

// Close closes the child.
func (l *Limit) Close() error { return l.Child.Close() }

// Distinct suppresses duplicate rows using the canonical row encoding.
type Distinct struct {
	Child Operator

	seen map[string]struct{}
	buf  []byte // scratch key buffer, reused across rows
}

// Open opens the child and resets the seen set.
func (d *Distinct) Open() error {
	d.seen = make(map[string]struct{})
	return d.Child.Open()
}

// Next emits the next previously-unseen row. The row key is materialized
// into a reusable scratch buffer; the map lookup via string(buf) does not
// allocate, so only genuinely new rows pay for a key string.
func (d *Distinct) Next() ([]types.Value, bool, error) {
	for {
		row, ok, err := d.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		d.buf = AppendKey(d.buf[:0], row...)
		if _, dup := d.seen[string(d.buf)]; dup {
			continue
		}
		d.seen[string(d.buf)] = struct{}{}
		return row, true, nil
	}
}

// Close closes the child.
func (d *Distinct) Close() error {
	d.seen = nil
	return d.Child.Close()
}

// Union concatenates children with set semantics (duplicates across and
// within children are suppressed). Children must have equal arity.
type Union struct {
	Children []Operator

	cur  int
	seen map[string]struct{}
	buf  []byte // scratch key buffer, reused across rows
}

// Open opens the first child.
func (u *Union) Open() error {
	u.cur = 0
	u.seen = make(map[string]struct{})
	if len(u.Children) == 0 {
		return nil
	}
	return u.Children[0].Open()
}

// Next emits the next distinct row across all children.
func (u *Union) Next() ([]types.Value, bool, error) {
	for u.cur < len(u.Children) {
		row, ok, err := u.Children[u.cur].Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			if err := u.Children[u.cur].Close(); err != nil {
				return nil, false, err
			}
			u.cur++
			if u.cur < len(u.Children) {
				if err := u.Children[u.cur].Open(); err != nil {
					return nil, false, err
				}
			}
			continue
		}
		u.buf = AppendKey(u.buf[:0], row...)
		if _, dup := u.seen[string(u.buf)]; dup {
			continue
		}
		u.seen[string(u.buf)] = struct{}{}
		return row, true, nil
	}
	return nil, false, nil
}

// Close closes any child still open.
func (u *Union) Close() error {
	u.seen = nil
	if u.cur < len(u.Children) {
		return u.Children[u.cur].Close()
	}
	return nil
}
