package exec

import (
	"hash/maphash"
	"math"
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

// Bound passes the child's bound through.
func (f *Filter) Bound() (int, bool) { return boundOf(f.Child) }

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

// Bound passes the child's bound through.
func (p *Project) Bound() (int, bool) { return boundOf(p.Child) }

// AggSpec describes one aggregate output.
type AggSpec struct {
	Func sqlparser.FuncName
	Star bool      // COUNT(*)
	Arg  Evaluator // nil when Star
}

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

// Bound is the number of sorted rows left to emit.
func (s *Sort) Bound() (int, bool) { return len(s.rows) - s.pos, true }

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

// Bound is the child's bound, capped at what the limit still lets through.
func (l *Limit) Bound() (int, bool) {
	n, ok := boundOf(l.Child)
	return int(min(int64(n), l.N-l.emitted)), ok
}

// rowSet is the set of tuples a DISTINCT or a UNION has let through. A tuple
// is filed under a hash that agrees with its canonical encoding (AppendKey:
// 3 and 3.0 are one value, NULL equals NULL) and compared, value by value,
// with the tuples sharing that hash: membership costs no allocation, where a
// set of key strings costs one per new tuple.
type rowSet struct {
	seed maphash.Seed
	head map[uint64]int32 // hash → latest tuple filed under it
	rows [][]types.Value
	next []int32 // the tuple filed before rows[i] under the same hash, -1 at the end
}

// newRowSet makes a set sized for about n tuples (0: unknown).
func newRowSet(n int) *rowSet {
	return &rowSet{
		seed: maphash.MakeSeed(), head: make(map[uint64]int32, n),
		rows: make([][]types.Value, 0, n), next: make([]int32, 0, n),
	}
}

// hashTuple hashes a tuple so that tuples AppendKey encodes alike hash alike.
func hashTuple(seed maphash.Seed, row []types.Value) uint64 {
	var h uint64
	for _, v := range row {
		h = mixHash(h, hashValue(seed, v))
	}
	return h
}

// mixHash folds one column's hash into a tuple's running hash.
func mixHash(h, col uint64) uint64 {
	return (h ^ col) * 0x9E3779B97F4A7C15
}

// hashInt hashes a tagged 64-bit payload (the tag keeps 3, the timestamp 3ns
// and the bits of a float apart).
func hashInt(tag byte, payload uint64) uint64 {
	x := payload ^ uint64(tag)<<56
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

// hashValue hashes one value by AppendKey's rules: an integral float is the
// integer it equals, every NaN is one value.
func hashValue(seed maphash.Seed, v types.Value) uint64 {
	switch v.Kind() {
	case types.KindBool:
		if v.Bool() {
			return hashInt('b', 1)
		}
		return hashInt('b', 0)
	case types.KindInt:
		return hashInt('i', uint64(v.Int()))
	case types.KindFloat:
		switch f := v.Float(); {
		case f == math.Trunc(f) && f >= -9.007199254740992e15 && f <= 9.007199254740992e15:
			return hashInt('i', uint64(int64(f)))
		case f != f:
			return hashInt('f', math.Float64bits(math.NaN()))
		default:
			return hashInt('f', math.Float64bits(f))
		}
	case types.KindString:
		return maphash.String(seed, v.Str())
	case types.KindTime:
		return hashInt('t', uint64(v.TimeNanos()))
	}
	return hashInt('n', 0)
}

// add files the tuple unless an equal one is there; it reports whether the
// tuple was new. The set keeps the slice, which the caller must not reuse.
func (s *rowSet) add(row []types.Value) bool {
	sum := hashTuple(s.seed, row)
	first, ok := s.head[sum]
	if !ok {
		first = -1
	}
	for i := first; i >= 0; i = s.next[i] {
		if sameTuple(s.rows[i], row) {
			return false
		}
	}
	s.head[sum] = int32(len(s.rows))
	s.rows = append(s.rows, row)
	s.next = append(s.next, first)
	return true
}

// sameTuple reports whether two tuples of one arity have the same canonical
// encoding.
func sameTuple(a, b []types.Value) bool {
	for i, v := range a {
		if !sameValue(v, b[i]) {
			return false
		}
	}
	return true
}

// sameValue reports whether AppendKey encodes two values alike, without
// building the encoding where the kinds agree.
func sameValue(v, w types.Value) bool {
	switch {
	case v.Kind() != w.Kind() || v.Kind() == types.KindFloat:
		// Cross-kind numerics and floats go by the encoding itself.
		var x, y [32]byte
		return string(AppendKey(x[:0], v)) == string(AppendKey(y[:0], w))
	case v.Kind() == types.KindString:
		return v.Str() == w.Str()
	case v.Kind() == types.KindInt:
		return v.Int() == w.Int()
	case v.Kind() == types.KindTime:
		return v.TimeNanos() == w.TimeNanos()
	case v.Kind() == types.KindBool:
		return v.Bool() == w.Bool()
	}
	return true // NULL and NULL
}

// Distinct suppresses duplicate rows using the canonical row encoding. It
// keeps the tuples it lets through (rowSet), so its child must not reuse
// them — every planner pipeline ends in a projection that mints its own.
type Distinct struct {
	Child Operator

	seen *rowSet
}

// Open opens the child and resets the seen set.
func (d *Distinct) Open() error {
	if err := d.Child.Open(); err != nil {
		return err
	}
	n, _ := boundOf(d.Child)
	d.seen = newRowSet(n)
	return nil
}

// Next emits the next previously-unseen row.
func (d *Distinct) Next() ([]types.Value, bool, error) {
	for {
		row, ok, err := d.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if d.seen.add(row) {
			return row, true, nil
		}
	}
}

// Bound passes the child's bound through.
func (d *Distinct) Bound() (int, bool) { return boundOf(d.Child) }

// Close closes the child.
func (d *Distinct) Close() error {
	d.seen = nil
	return d.Child.Close()
}

// Union concatenates children with set semantics (duplicates across and
// within children are suppressed). Children must have equal arity and, as
// for Distinct, must not reuse the tuples they emit.
type Union struct {
	Children []Operator

	cur  int
	seen *rowSet
}

// Open opens the first child.
func (u *Union) Open() error {
	u.cur = 0
	// Sized for the largest child that knows what it holds (a gather's
	// materialized blocks do): the arms of a recency query mostly return
	// the same sources.
	n := 0
	for _, c := range u.Children {
		k, _ := boundOf(c)
		n = max(n, k)
	}
	u.seen = newRowSet(n)
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
		if u.seen.add(row) {
			return row, true, nil
		}
	}
	return nil, false, nil
}

// Bound is what the children not yet exhausted still hold, when all of
// them know.
func (u *Union) Bound() (int, bool) {
	n := 0
	for _, c := range u.Children[min(u.cur, len(u.Children)):] {
		k, known := boundOf(c)
		if !known {
			return 0, false
		}
		n += k
	}
	return n, true
}

// Close closes any child still open.
func (u *Union) Close() error {
	u.seen = nil
	if u.cur < len(u.Children) {
		return u.Children[u.cur].Close()
	}
	return nil
}
