package exec

import (
	"hash/maphash"
	"math"
	"slices"
	"sort"

	"trac/internal/sqlparser"
	"trac/internal/types"
)

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

// BatchSort orders its input: it collects the child into one batch and
// permutes the batch's selection, stably, by the keys — evaluated once per
// tuple into one flat buffer, so a comparison touches no expression. Ties keep
// their input order, and every operator above keeps the order Sel is in
// (Batch).
type BatchSort struct {
	Child BatchOperator
	Keys  []SortKey

	held // the sorted input
}

// Open collects the child (opening and closing it) and sorts it.
func (s *BatchSort) Open() error {
	all, err := DrainBatch(s.Child)
	if err != nil || all == nil {
		return err
	}
	if err := all.sortSel(s.Keys); err != nil {
		PutBatch(all)
		return err
	}
	s.out = all
	return nil
}

// sortSel permutes the selection into key order.
func (b *Batch) sortSel(keys []SortKey) error {
	nk, n := len(keys), len(b.Sel)
	vals := make([]types.Value, n*nk)
	for i, pos := range b.Sel {
		row := b.RowAt(pos)
		for k, key := range keys {
			var err error
			if vals[i*nk+k], err = key.Expr(row); err != nil {
				return err
			}
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool {
		ki, kj := vals[perm[i]*nk:], vals[perm[j]*nk:]
		for k := range keys {
			if types.Less(ki[k], kj[k]) {
				return !keys[k].Desc
			}
			if types.Less(kj[k], ki[k]) {
				return keys[k].Desc
			}
		}
		return false
	})
	sel := slices.Clone(b.Sel)
	for i, p := range perm {
		b.Sel[i] = sel[p]
	}
	return nil
}

// BatchLimit lets the first N tuples of its input through, truncating the
// batch that reaches the limit, and pulls nothing more once it has.
type BatchLimit struct {
	Child BatchOperator
	N     int64

	emitted int64
}

// Open opens the child.
func (l *BatchLimit) Open() error {
	l.emitted = 0
	return l.Child.Open()
}

// NextBatch emits the next batch, cut to what the limit still lets through.
func (l *BatchLimit) NextBatch() (*Batch, error) {
	if l.emitted >= l.N {
		return nil, nil
	}
	b, err := l.Child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if left := l.N - l.emitted; int64(b.Len()) > left {
		b.Sel = b.Sel[:left]
	}
	l.emitted += int64(b.Len())
	return b, nil
}

// Close closes the child.
func (l *BatchLimit) Close() error { return l.Child.Close() }

// BatchUnion unites its children, of one arity, as a set: each is collected
// in turn and their tuples concatenated, in child order, into one batch
// narrowed to the first occurrence of each tuple (UnionBatches).
type BatchUnion struct {
	Children []BatchOperator

	held // the union
}

// Open collects every child (opening and closing it) and unites them.
func (u *BatchUnion) Open() error {
	parts := make([]*Batch, 0, len(u.Children))
	for _, c := range u.Children {
		b, err := DrainBatch(c)
		if err != nil {
			for _, p := range parts {
				PutBatch(p)
			}
			return err
		}
		parts = append(parts, b)
	}
	u.out = UnionBatches(parts)
	return nil
}

// OneRow emits one tuple of no columns: what a SELECT without FROM projects
// its items over.
type OneRow struct {
	held
}

// Open readies the tuple.
func (o *OneRow) Open() error {
	b := GetBatch()
	b.Shape(0, 1)
	b.SelectAll()
	o.out = b
	return nil
}

// Given hands a batch made outside any plan — a shard gather's merged
// answer — to the operators stacked over it, once: it is never part of a
// plan kept for reuse. nil, or a batch that selects nothing, stands for no
// tuples.
func Given(b *Batch) BatchOperator {
	if b != nil && b.Len() == 0 {
		PutBatch(b)
		b = nil
	}
	return &given{held{out: b}}
}

type given struct {
	held
}

func (*given) Open() error { return nil }

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
