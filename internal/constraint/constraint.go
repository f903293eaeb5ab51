// Package constraint reads a single-column conjunct — `col op lit`,
// `col [NOT] IN (lits)`, `col [NOT] BETWEEN lit AND lit`,
// `col [NOT] LIKE 'pattern'` and `col IS [NOT] NULL` — once, under one
// coercion rule, into a Constraint: the set of column values the conjunct
// keeps (WHERE semantics: TRUE keeps, FALSE and UNKNOWN drop).
//
// Every reader of such conjuncts is a short function of that value: the
// executor's typed selection loops and zone-map proofs, the planner's index
// probe keys, range bounds, shard pruning and selectivity, and the
// satisfiability checker. So they agree with each other by construction, and
// with the row evaluator because the constraint is read with its semantics:
// NULL operands are UNKNOWN, an INT column against a FLOAT literal compares
// in float64, NaN sorts below every other float, and an IN member that
// cannot be compared with the column is a non-match.
package constraint

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"trac/internal/sqlparser"
	"trac/internal/types"
)

// Bound is one end of an interval. A NULL Val is no bound: −∞ as a lower
// end, +∞ as an upper one.
type Bound struct {
	Val  types.Value
	Open bool // Val itself lies outside the interval
}

// Interval is the set of values between Lo and Hi.
type Interval struct{ Lo, Hi Bound }

// Constraint is the set of values of one column that a conjunct keeps.
// Points and bounds have the column's kind.
type Constraint struct {
	Kind types.Kind
	// Points, unless Range is set, are the non-NULL values kept: sorted and
	// distinct.
	Points []types.Value
	// Ivs, when Range is set, are the non-NULL values kept: sorted, disjoint,
	// non-empty intervals. A set whose every interval is one closed point is
	// always held as Points.
	Ivs   []Interval
	Range bool
	// Null reports that NULL is kept.
	Null bool
	// Like, when not empty, is the residual of a LIKE pattern that is not a
	// plain prefix: a kept value must also match it (must not, when NotLike).
	// Points never carry a residual.
	Like    string
	NotLike bool
	// Restated reports a FLOAT literal restated over an INT column: exact
	// for INT values only, not for a value of another kind.
	Restated bool
}

// Coerce is the one coercion rule for a literal compared with a column of
// kind k: a TEXT literal against a TIMESTAMP column becomes the timestamp it
// spells, when it spells one. Any other literal is returned unchanged.
func Coerce(v types.Value, k types.Kind) types.Value {
	if k == types.KindTime && v.Kind() == types.KindString {
		if ts, err := types.ParseTime(v.Str()); err == nil {
			return types.NewTime(ts)
		}
	}
	return v
}

// Read reads e as a constraint on the one column it tests. kind resolves
// the column reference to the column's declared kind; ok=false from it, a
// shape outside the forms this package reads, or a comparison whose literal
// cannot be compared with the column (the evaluator raises an error there)
// leaves e unread. kind is called at most once and before anything is
// built, so reading a conjunct over another column costs nothing; a read
// conjunct costs one allocation, the constraint's own slice.
func Read(e sqlparser.Expr, kind func(*sqlparser.ColumnRef) (types.Kind, bool)) (Constraint, bool) {
	var (
		k         types.Kind
		buf       [8]Interval
		ivs       []Interval // the kept values, built in buf while they fit
		null, neg bool
		residual  string
		notLike   bool
	)
	col := func(x sqlparser.Expr) bool {
		cr, ok := x.(*sqlparser.ColumnRef)
		if ok {
			k, ok = kind(cr)
		}
		return ok
	}
	switch n := e.(type) {
	case *sqlparser.Comparison:
		colSide, litSide, op := n.Left, n.Right, n.Op
		if _, ok := colSide.(*sqlparser.Literal); ok {
			colSide, litSide, op = litSide, colSide, op.Flip()
		}
		lit, ok := litSide.(*sqlparser.Literal)
		if !ok || !col(colSide) {
			return Constraint{}, false
		}
		v := Coerce(lit.Val, k)
		switch {
		case v.IsNull():
			return Constraint{Kind: k}, true // UNKNOWN for every row
		case !types.Comparable(k, v.Kind()):
			return Constraint{}, false
		}
		ivs = build(k, compare(op, v, buf[:0]))
	case *sqlparser.In:
		for _, it := range n.List {
			if _, ok := it.(*sqlparser.Literal); !ok {
				return Constraint{}, false
			}
		}
		if !col(n.Expr) {
			return Constraint{}, false
		}
		var sawNull bool
		ivs, sawNull = in(k, n.List, buf[:0])
		if neg = n.Negated; neg && sawNull {
			return Constraint{Kind: k}, true // NOT IN over NULL is never TRUE
		}
	case *sqlparser.Between:
		lo, ok1 := n.Lo.(*sqlparser.Literal)
		hi, ok2 := n.Hi.(*sqlparser.Literal)
		if !ok1 || !ok2 || !col(n.Expr) {
			return Constraint{}, false
		}
		lv, hv := Coerce(lo.Val, k), Coerce(hi.Val, k)
		switch {
		case lv.IsNull() || hv.IsNull():
			return Constraint{Kind: k}, true
		case !types.Comparable(k, lv.Kind()) || !types.Comparable(k, hv.Kind()):
			return Constraint{}, false
		}
		ivs, neg = build(k, append(buf[:0], Interval{Bound{Val: lv}, Bound{Val: hv}})), n.Negated
	case *sqlparser.Like:
		pat, ok := n.Pattern.(*sqlparser.Literal)
		if !ok || pat.Val.Kind() != types.KindString || !col(n.Expr) || k != types.KindString {
			return Constraint{}, false
		}
		ivs, residual = like(pat.Val.Str(), buf[:0])
		if neg = n.Negated; neg && residual != "" {
			// The residual decides inside the prefix's range, and every
			// value outside it passes: the set part is every string.
			ivs, neg, notLike = append(buf[:0], Interval{}), false, true
		}
	case *sqlparser.IsNull:
		if !col(n.Expr) {
			return Constraint{}, false
		}
		null, neg = true, n.Negated
	default:
		return Constraint{}, false
	}
	if neg {
		// NOT keeps the values the form drops; NULL stays dropped (NOT over
		// UNKNOWN is UNKNOWN), and IS NOT NULL drops it.
		var comp [9]Interval
		ivs, null = complement(ivs, comp[:0]), false
	}
	c := fromIvs(k, ivs)
	c.Null, c.Like, c.NotLike = null, residual, notLike
	if k == types.KindInt {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			lit, ok := x.(*sqlparser.Literal)
			c.Restated = c.Restated || ok && lit.Val.Kind() == types.KindFloat
			return true
		})
	}
	return c, true
}

// compare appends to dst the values `col op v` keeps.
func compare(op sqlparser.CmpOp, v types.Value, dst []Interval) []Interval {
	at, open := Bound{Val: v}, Bound{Val: v, Open: true}
	switch op {
	case sqlparser.CmpEq:
		return append(dst, Interval{at, at})
	case sqlparser.CmpNe:
		return append(dst, Interval{Bound{}, open}, Interval{open, Bound{}})
	case sqlparser.CmpLt:
		return append(dst, Interval{Bound{}, open})
	case sqlparser.CmpLe:
		return append(dst, Interval{Bound{}, at})
	case sqlparser.CmpGt:
		return append(dst, Interval{open, Bound{}})
	}
	return append(dst, Interval{at, Bound{}})
}

// in appends to dst the values an IN list's members name, built. A member
// that cannot be compared with the column matches nothing; sawNull reports
// a NULL member.
func in(k types.Kind, list []sqlparser.Expr, dst []Interval) (_ []Interval, sawNull bool) {
	for _, it := range list {
		v := Coerce(it.(*sqlparser.Literal).Val, k)
		switch {
		case v.IsNull():
			sawNull = true
		case types.Comparable(k, v.Kind()):
			dst = append(dst, Interval{Bound{Val: v}, Bound{Val: v}})
		}
	}
	return build(k, dst), sawNull
}

// like appends to dst the values `col LIKE pattern` keeps: a point for a
// pattern without wildcards, the prefix's range for a prefix followed only
// by '%', and that range with the pattern as residual otherwise.
func like(pattern string, dst []Interval) (_ []Interval, residual string) {
	prefix := types.NewString(LikePrefix(pattern))
	if prefix.Str() == pattern {
		return append(dst, Interval{Bound{Val: prefix}, Bound{Val: prefix}}), ""
	}
	iv := Interval{Lo: Bound{Val: prefix}}
	if succ, ok := successor(prefix.Str()); ok {
		iv.Hi = Bound{Val: types.NewString(succ), Open: true}
	}
	if strings.Trim(pattern[len(prefix.Str()):], "%") != "" {
		residual = pattern
	}
	return append(dst, iv), residual
}

// successor returns the least string above every string with the given
// prefix: the prefix with its last byte below 0xFF incremented and the rest
// dropped. ok is false when every byte is 0xFF.
func successor(prefix string) (string, bool) {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xFF {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}

// build restates intervals over literal values as intervals over kind k,
// in place: each bound is restated exactly, empty intervals go, and the rest
// are sorted and merged.
func build(k types.Kind, ivs []Interval) []Interval {
	out := ivs[:0]
	for _, iv := range ivs {
		lo, ok1 := restate(k, iv.Lo, true)
		hi, ok2 := restate(k, iv.Hi, false)
		if iv = (Interval{lo, hi}); ok1 && ok2 && nonEmpty(iv) {
			out = append(out, iv)
		}
	}
	slices.SortFunc(out, func(a, b Interval) int { return cmpLo(a.Lo, b.Lo) })
	merged := out[:0]
	for _, iv := range out {
		if n := len(merged); n > 0 && reaches(merged[n-1].Hi, iv.Lo) {
			if cmpHi(iv.Hi, merged[n-1].Hi) > 0 {
				merged[n-1].Hi = iv.Hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// fromIvs holds a copy of sorted, disjoint, non-empty intervals as a
// constraint, as Points when every interval is one closed point.
func fromIvs(k types.Kind, ivs []Interval) Constraint {
	for _, iv := range ivs {
		if !isPoint(iv) {
			return Constraint{Kind: k, Range: true, Ivs: slices.Clone(ivs)}
		}
	}
	pts := make([]types.Value, len(ivs))
	for i, iv := range ivs {
		pts[i] = iv.Lo.Val
	}
	return Constraint{Kind: k, Points: pts}
}

func isPoint(iv Interval) bool {
	return !iv.Lo.Open && !iv.Hi.Open && !iv.Lo.Val.IsNull() && !iv.Hi.Val.IsNull() && compareV(iv.Lo.Val, iv.Hi.Val) == 0
}

// restate restates a bound on a literal as a bound on kind k that keeps
// exactly the same values of k. ok is false when no value of k lies on the
// kept side. Only an INT column against a FLOAT literal needs work: the
// column's values compare as float64, and since that conversion is monotone
// the kept integers still form an interval, whose closed integer ends a
// binary search finds.
func restate(k types.Kind, b Bound, lower bool) (Bound, bool) {
	v := b.Val
	switch {
	case v.IsNull() || v.Kind() == k:
		return b, true
	case k == types.KindFloat:
		f, _ := v.AsFloat()
		return Bound{Val: types.NewFloat(f), Open: b.Open}, true
	}
	// The integers on the kept side of a lower bound start at the first one
	// past it; those below an upper bound end just before the first one past
	// it. Past f means above f, or at f for an end that keeps f below it (a
	// closed lower end, an open upper one).
	f := v.Float()
	i, ok := leastInt(func(i int64) bool {
		c := cmp.Compare(float64(i), f)
		return c > 0 || c == 0 && lower != b.Open
	})
	switch {
	case lower:
		return Bound{Val: types.NewInt(i)}, ok
	case !ok:
		return Bound{}, true // every integer lies below the bound
	}
	return Bound{Val: types.NewInt(i - 1)}, i != math.MinInt64
}

// leastInt returns the least int64 for which the monotone predicate holds,
// ok=false when it holds for none.
func leastInt(holds func(int64) bool) (int64, bool) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if !holds(hi) {
		return 0, false
	}
	for lo < hi {
		mid := lo + int64((uint64(hi)-uint64(lo))/2)
		if holds(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// compareV orders two non-NULL values of one kind (types.Compare: NaN
// sorts smallest). Values of uncomparable kinds order as equal, which no
// caller relies on: every bound and point of a constraint has its kind.
func compareV(a, b types.Value) int {
	c, _ := types.Compare(a, b)
	return c
}

// cmpLo orders lower bounds: −∞ first, and at one value a closed end first.
func cmpLo(a, b Bound) int {
	if a.Val.IsNull() || b.Val.IsNull() {
		return b2i(!a.Val.IsNull()) - b2i(!b.Val.IsNull())
	}
	if c := compareV(a.Val, b.Val); c != 0 {
		return c
	}
	return b2i(a.Open) - b2i(b.Open)
}

// cmpHi orders upper bounds: +∞ last, and at one value an open end first.
func cmpHi(a, b Bound) int {
	if a.Val.IsNull() || b.Val.IsNull() {
		return b2i(a.Val.IsNull()) - b2i(b.Val.IsNull())
	}
	if c := compareV(a.Val, b.Val); c != 0 {
		return c
	}
	return b2i(b.Open) - b2i(a.Open)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// reaches reports that an interval ending at hi overlaps or touches one
// starting at lo (lo at or after the other's start), so the two merge.
func reaches(hi, lo Bound) bool {
	if hi.Val.IsNull() || lo.Val.IsNull() {
		return true
	}
	c := compareV(hi.Val, lo.Val)
	return c > 0 || c == 0 && (!hi.Open || !lo.Open)
}

// below reports that every value of an interval ending at hi lies below v.
func below(hi Bound, v types.Value) bool {
	if hi.Val.IsNull() {
		return false
	}
	c := compareV(hi.Val, v)
	return c < 0 || c == 0 && hi.Open
}

// holds reports that v lies in iv.
func holds(iv Interval, v types.Value) bool {
	if below(iv.Hi, v) {
		return false
	}
	if iv.Lo.Val.IsNull() {
		return true
	}
	c := compareV(iv.Lo.Val, v)
	return c < 0 || c == 0 && !iv.Lo.Open
}

// nonEmpty reports that some value of the bounds' kind lies in iv. Between
// two ends that exclude themselves it asks for the least value above the
// lower end.
func nonEmpty(iv Interval) bool {
	lo, hi := iv.Lo, iv.Hi
	switch {
	case lo.Val.IsNull() && hi.Val.IsNull():
		return true
	case lo.Val.IsNull():
		return !hi.Open || compareV(least[hi.Val.Kind()], hi.Val) < 0
	case hi.Val.IsNull():
		_, ok := next(lo.Val)
		return !lo.Open || ok
	}
	c := compareV(lo.Val, hi.Val)
	switch {
	case c > 0:
		return false
	case c == 0:
		return !lo.Open && !hi.Open
	case !lo.Open || !hi.Open:
		return true
	}
	n, ok := next(lo.Val)
	return ok && compareV(n, hi.Val) < 0
}

// next returns the least value of v's kind above v, ok=false at the top.
func next(v types.Value) (types.Value, bool) {
	switch v.Kind() {
	case types.KindInt:
		return types.NewInt(v.Int() + 1), v.Int() != math.MaxInt64
	case types.KindTime:
		return types.NewTimeNanos(v.TimeNanos() + 1), v.TimeNanos() != math.MaxInt64
	case types.KindBool:
		return types.NewBool(true), !v.Bool()
	case types.KindFloat:
		f := v.Float()
		if math.IsNaN(f) {
			return types.NewFloat(math.Inf(-1)), true
		}
		return types.NewFloat(math.Nextafter(f, math.Inf(1))), !math.IsInf(f, 1)
	case types.KindString:
		return types.NewString(v.Str() + "\x00"), true
	}
	return types.Null, false
}

// least is each kind's least value.
var least = map[types.Kind]types.Value{
	types.KindInt:    types.NewInt(math.MinInt64),
	types.KindTime:   types.NewTimeNanos(math.MinInt64),
	types.KindBool:   types.NewBool(false),
	types.KindFloat:  types.NewFloat(math.NaN()),
	types.KindString: types.NewString(""),
}

// Complement is the set of values of the column's kind that c does not
// keep, NULL included when c drops it. A residual's complement is not a
// set this form holds, so the set part of a constraint with one is
// complemented as if the residual were absent.
func (c Constraint) Complement() Constraint {
	var buf, comp [8]Interval
	ivs := c.Ivs
	if !c.Range {
		ivs = buf[:0]
		for _, p := range c.Points {
			ivs = append(ivs, Interval{Bound{Val: p}, Bound{Val: p}})
		}
	}
	r := fromIvs(c.Kind, complement(ivs, comp[:0]))
	r.Null = !c.Null
	return r
}

// complement appends to dst the gaps between sorted, disjoint, non-empty
// intervals, from −∞ to +∞.
func complement(ivs, dst []Interval) []Interval {
	lo := Bound{}
	for _, iv := range ivs {
		if !iv.Lo.Val.IsNull() {
			if gap := (Interval{lo, Bound{Val: iv.Lo.Val, Open: !iv.Lo.Open}}); nonEmpty(gap) {
				dst = append(dst, gap)
			}
		}
		if iv.Hi.Val.IsNull() {
			return dst
		}
		lo = Bound{Val: iv.Hi.Val, Open: !iv.Hi.Open}
	}
	if gap := (Interval{lo, Bound{}}); nonEmpty(gap) {
		dst = append(dst, gap)
	}
	return dst
}

// Contains reports that c keeps v, a value of c's kind or NULL.
func (c Constraint) Contains(v types.Value) bool {
	if v.IsNull() {
		return c.Null
	}
	if v.Kind() != c.Kind {
		return false
	}
	if !c.Range {
		_, ok := slices.BinarySearchFunc(c.Points, v, compareV)
		return ok
	}
	i, _ := slices.BinarySearchFunc(c.Ivs, v, func(iv Interval, v types.Value) int {
		if below(iv.Hi, v) {
			return -1
		}
		return 1
	})
	if i == len(c.Ivs) || !holds(c.Ivs[i], v) {
		return false
	}
	return c.Like == "" || MatchLike(v.Str(), c.Like) != c.NotLike
}

// Overlaps reports that c may keep a value of iv, whose bounds have c's
// kind: some point or interval of c meets iv. A residual is not consulted,
// so false is a proof and true is not.
func (c Constraint) Overlaps(iv Interval) bool {
	if !c.Range {
		for _, p := range c.Points {
			if holds(iv, p) {
				return true
			}
		}
		return false
	}
	for _, x := range c.Ivs {
		if nonEmpty(meet(x, iv)) {
			return true
		}
	}
	return false
}

// Covers reports that c keeps every value of iv, a non-empty interval whose
// bounds have c's kind.
func (c Constraint) Covers(iv Interval) bool {
	if !c.Range {
		return isPoint(iv) && c.Contains(iv.Lo.Val)
	}
	if c.Like != "" {
		return false
	}
	for _, x := range c.Ivs {
		if cmpLo(x.Lo, iv.Lo) <= 0 && cmpHi(x.Hi, iv.Hi) >= 0 {
			return true
		}
	}
	return false
}

// meet is the intersection of two intervals, possibly empty.
func meet(a, b Interval) Interval {
	if cmpLo(a.Lo, b.Lo) < 0 {
		a.Lo = b.Lo
	}
	if cmpHi(a.Hi, b.Hi) > 0 {
		a.Hi = b.Hi
	}
	return a
}

// Intersect is the set both constraints keep, over one column. It is exact,
// except that of two residuals it keeps only c's: points are filtered
// through the other side's Contains, residual included, and carry none.
func (c Constraint) Intersect(o Constraint) Constraint {
	if !o.Range && c.Range {
		c, o = o, c
	}
	var r Constraint
	switch {
	case !c.Range:
		pts := make([]types.Value, 0, len(c.Points))
		for _, p := range c.Points {
			if o.Contains(p) {
				pts = append(pts, p)
			}
		}
		r = Constraint{Kind: c.Kind, Points: pts}
	default:
		var buf [8]Interval
		out := buf[:0]
		for i, j := 0, 0; i < len(c.Ivs) && j < len(o.Ivs); {
			if m := meet(c.Ivs[i], o.Ivs[j]); nonEmpty(m) {
				out = append(out, m)
			}
			if cmpHi(c.Ivs[i].Hi, o.Ivs[j].Hi) < 0 {
				i++
			} else {
				j++
			}
		}
		r = fromIvs(c.Kind, out)
		if r.Like, r.NotLike = c.Like, c.NotLike; r.Like == "" {
			r.Like, r.NotLike = o.Like, o.NotLike
		}
		if !r.Range && r.Like != "" {
			r = r.Intersect(Constraint{Kind: c.Kind, Range: true, Ivs: []Interval{{}}, Like: r.Like, NotLike: r.NotLike})
		}
	}
	r.Null = c.Null && o.Null
	return r
}

// Hull returns the least interval holding every non-NULL value c keeps,
// ok=false when it keeps none.
func (c Constraint) Hull() (Interval, bool) {
	switch {
	case !c.Range && len(c.Points) > 0:
		return Interval{Bound{Val: c.Points[0]}, Bound{Val: c.Points[len(c.Points)-1]}}, true
	case c.Range && len(c.Ivs) > 0:
		return Interval{c.Ivs[0].Lo, c.Ivs[len(c.Ivs)-1].Hi}, true
	}
	return Interval{}, false
}

// OfDomain is the constraint a column's domain places on its potential
// values: the domain's members, and NULL, which every column can hold.
// exact is false when the domain's members cannot be stated over the
// column's kind k (an integer range over a column of another kind); the
// constraint then keeps every value.
func OfDomain(d types.Domain, k types.Kind) (c Constraint, exact bool) {
	var buf [8]Interval
	switch {
	case d.Kind == types.DomainFinite:
		ivs := buf[:0]
		for _, v := range d.Values {
			if types.Comparable(k, v.Kind()) {
				ivs = append(ivs, Interval{Bound{Val: v}, Bound{Val: v}})
			}
		}
		c, exact = fromIvs(k, build(k, ivs)), true
	case d.Kind == types.DomainIntRange && k == types.KindInt:
		ivs := append(buf[:0], Interval{Bound{Val: types.NewInt(d.MinInt)}, Bound{Val: types.NewInt(d.MaxInt)}})
		c, exact = fromIvs(k, build(k, ivs)), true
	default:
		c, exact = Constraint{Kind: k, Range: true, Ivs: []Interval{{}}}, d.Kind == types.DomainUnbounded
	}
	c.Null = true
	return c, exact
}

// MatchLike implements SQL LIKE: '%' matches any run (including empty),
// '_' matches exactly one byte. Matching is case-sensitive, as in
// PostgreSQL.
func MatchLike(s, pattern string) bool {
	// Iterative two-pointer algorithm with backtracking on the last '%'.
	si, pi := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			starSi = si
			pi++
		case star >= 0:
			starSi++
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// LikePrefix returns the literal prefix of a LIKE pattern before the first
// wildcard ('Tao%' → "Tao").
func LikePrefix(pattern string) string {
	i := strings.IndexAny(pattern, "%_")
	if i < 0 {
		return pattern
	}
	return pattern[:i]
}
