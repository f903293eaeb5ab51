package exec

import (
	"fmt"
	"slices"
	"strings"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// aggState accumulates one group's aggregates, one slot per AggSpec.
//
// SUM/AVG accumulation is exact over INT inputs: while intOnly[i] holds, the
// authoritative sum is the int64 isums[i]; the first FLOAT input or an int64
// overflow folds the running int sum into fsums[i] and clears intOnly[i] —
// an explicit, observable fallback. (The previous design accumulated a
// float64 alongside the int sum for every row, so SUM silently wrapped on
// overflow while still reporting an "exact" integer, and AVG over pure-INT
// columns paid float rounding drift it never needed to.)
type aggState struct {
	keys    []types.Value
	counts  []int64
	fsums   []float64
	isums   []int64
	intOnly []bool
	mins    []types.Value
	maxs    []types.Value
	order   int // first-seen order for deterministic output
}

func newAggState(keys []types.Value, nSpecs, order int) *aggState {
	st := &aggState{
		keys:    keys,
		counts:  make([]int64, nSpecs),
		fsums:   make([]float64, nSpecs),
		isums:   make([]int64, nSpecs),
		intOnly: make([]bool, nSpecs),
		mins:    make([]types.Value, nSpecs),
		maxs:    make([]types.Value, nSpecs),
		order:   order,
	}
	for i := range st.intOnly {
		st.intOnly[i] = true
		st.mins[i] = types.Null
		st.maxs[i] = types.Null
	}
	return st
}

// addInt64 adds with explicit overflow detection.
func addInt64(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// demoteToFloat folds the exact int sum into the float accumulator; further
// accumulation for slot si is float-only.
func (st *aggState) demoteToFloat(si int) {
	if st.intOnly[si] {
		st.intOnly[si] = false
		st.fsums[si] += float64(st.isums[si])
	}
}

// addSum accumulates one non-null SUM/AVG input, staying on the exact int
// path while possible. fn names the aggregate in the non-numeric error.
func (st *aggState) addSum(si int, v types.Value, fn sqlparser.FuncName) error {
	if v.Kind() == types.KindInt && st.intOnly[si] {
		if s, ok := addInt64(st.isums[si], v.Int()); ok {
			st.isums[si] = s
			return nil
		}
		// Overflow: fall through and add this value as a float too.
	}
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("exec: %s over non-numeric %s", fn, v.Kind())
	}
	st.demoteToFloat(si)
	st.fsums[si] += f
	return nil
}

// addSumExactInt folds a pre-computed exact int partial sum (a zone-map
// SumInt or another state's isums) into slot si.
func (st *aggState) addSumExactInt(si int, sum int64) {
	if st.intOnly[si] {
		if s, ok := addInt64(st.isums[si], sum); ok {
			st.isums[si] = s
			return
		}
	}
	st.demoteToFloat(si)
	st.fsums[si] += float64(sum)
}

// addSumFloat folds a float partial sum into slot si.
func (st *aggState) addSumFloat(si int, sum float64) {
	st.demoteToFloat(si)
	st.fsums[si] += sum
}

func (st *aggState) addMin(si int, v types.Value) {
	if st.mins[si].IsNull() || types.Less(v, st.mins[si]) {
		st.mins[si] = v
	}
}

func (st *aggState) addMax(si int, v types.Value) {
	if st.maxs[si].IsNull() || types.Less(st.maxs[si], v) {
		st.maxs[si] = v
	}
}

// observe accumulates one non-null aggregate input (the generic per-value
// path; the batch kernels inline the common type pairings).
func (st *aggState) observe(si int, spec *AggSpec, v types.Value) error {
	st.counts[si]++
	switch spec.Func {
	case sqlparser.FuncSum, sqlparser.FuncAvg:
		return st.addSum(si, v, spec.Func)
	case sqlparser.FuncMin:
		st.addMin(si, v)
	case sqlparser.FuncMax:
		st.addMax(si, v)
	}
	return nil
}

// mergeFrom folds another state's accumulators into this one (partial
// aggregate merge). Exactness is preserved: int partial sums combine through
// the same overflow-checked path as accumulating the values themselves.
func (st *aggState) mergeFrom(o *aggState) {
	for si := range st.counts {
		st.counts[si] += o.counts[si]
		if o.intOnly[si] {
			if o.isums[si] != 0 {
				st.addSumExactInt(si, o.isums[si])
			}
		} else {
			st.demoteToFloat(si)
			st.fsums[si] += o.fsums[si]
		}
		if !o.mins[si].IsNull() {
			st.addMin(si, o.mins[si])
		}
		if !o.maxs[si].IsNull() {
			st.addMax(si, o.maxs[si])
		}
	}
}

// value finalizes slot si. SUM over no inputs is NULL; an exact int SUM
// stays INT; AVG divides the exact int sum when it never demoted, so
// pure-INT averages carry no accumulation drift.
func (st *aggState) value(si int, fn sqlparser.FuncName) (types.Value, error) {
	switch fn {
	case sqlparser.FuncCount:
		return types.NewInt(st.counts[si]), nil
	case sqlparser.FuncSum:
		switch {
		case st.counts[si] == 0:
			return types.Null, nil
		case st.intOnly[si]:
			return types.NewInt(st.isums[si]), nil
		default:
			return types.NewFloat(st.fsums[si]), nil
		}
	case sqlparser.FuncAvg:
		switch {
		case st.counts[si] == 0:
			return types.Null, nil
		case st.intOnly[si]:
			return types.NewFloat(float64(st.isums[si]) / float64(st.counts[si])), nil
		default:
			return types.NewFloat(st.fsums[si] / float64(st.counts[si])), nil
		}
	case sqlparser.FuncMin:
		return st.mins[si], nil
	case sqlparser.FuncMax:
		return st.maxs[si], nil
	}
	return types.Null, fmt.Errorf("exec: unknown aggregate %s", fn)
}

// aggTable is a hash aggregation table shared by the batch, parallel-partial
// and stat-pushdown aggregation operators. Group states are kept in
// first-seen order; the scratch key buffer is reused across rows (AppendKey
// into a byte slice, map lookup via string(buf), allocation only when a new
// group opens).
type aggTable struct {
	keys    []Evaluator
	keyCols []int // >= 0: read the key off that batch column; -1 (or nil slice) = evaluator
	specs   []AggSpec
	argCols []int // per spec: batch column of a bare-column argument, -1 = Arg

	groups map[string]*aggState
	order  []*aggState
	// byText fronts groups for a lone TEXT key read off a pure string
	// vector: the payload itself finds the state, with no key boxed or
	// encoded (the join's keyIndex does the same).
	byText map[string]*aggState

	keyScratch []types.Value
	keyBuf     []byte
	states     []*aggState // per-batch scratch: the selection's states, then a per-code memo (observeBatch)
}

func newAggTable(keys []Evaluator, keyCols []int, specs []AggSpec, argCols []int) *aggTable {
	return &aggTable{
		keys: keys, keyCols: keyCols, specs: specs, argCols: argCols,
		groups:     make(map[string]*aggState),
		keyScratch: make([]types.Value, len(keys)),
	}
}

// state resolves the group state for the key values in keyScratch.
func (t *aggTable) state() (*aggState, error) {
	t.keyBuf = AppendKey(t.keyBuf[:0], t.keyScratch...)
	st, ok := t.groups[string(t.keyBuf)]
	if !ok {
		keys := make([]types.Value, len(t.keyScratch))
		copy(keys, t.keyScratch)
		st = newAggState(keys, len(t.specs), len(t.order))
		t.groups[string(t.keyBuf)] = st
		t.order = append(t.order, st)
	}
	return st, nil
}

// globalState returns the single no-keys group, creating it on first use —
// global aggregation emits one row even over empty input.
func (t *aggTable) globalState() *aggState {
	st, ok := t.groups[""]
	if !ok {
		st = newAggState(nil, len(t.specs), len(t.order))
		t.groups[""] = st
		t.order = append(t.order, st)
	}
	return st
}

// argCol returns the direct-column offset for spec si, or -1.
func (t *aggTable) argCol(si int) int {
	if t.argCols == nil {
		return -1
	}
	return t.argCols[si]
}

// observeBatch accumulates one batch: group states are resolved once per
// selected position (keys read off the key vectors), then each spec runs its
// accumulation kernel over the argument vector. With no grouping keys every
// position feeds the one global state and nothing is resolved per tuple.
//
// A lone key read off a coded vector whose dictionary is shorter than the
// selection is resolved once per code instead, the first time a row carries
// it: a memo of the batch's scratch, one slot per code past the selection's,
// holds the state for every later row of that code. A NULL slot carries code
// 0, which is also Dict[0], so it takes the per-row path.
func (t *aggTable) observeBatch(b *Batch) error {
	if len(t.keys) == 0 {
		st := t.globalState()
		for si := range t.specs {
			if err := t.accumulate(si, b, nil, st); err != nil {
				return err
			}
		}
		return nil
	}
	var text *storage.ColVec
	if len(t.keys) == 1 && t.keyCols != nil && t.keyCols[0] >= 0 {
		if cv := b.Cols[t.keyCols[0]]; cv.Pure && cv.Kind == types.KindString {
			text = cv
		}
	}
	n, codes := b.Len(), 0
	if text != nil && text.Codes != nil && len(text.Dict) < n {
		codes = len(text.Dict)
	}
	scratch := slices.Grow(t.states[:0], n+codes)[:n+codes]
	t.states = scratch[:0]
	states, memo := scratch[:0:n], scratch[n:]
	clear(memo)
	for _, pos := range b.Sel {
		var st *aggState
		if codes > 0 && !text.Nulls[pos] {
			st = memo[text.Codes[pos]]
		}
		if st == nil {
			var err error
			if st, err = t.resolve(b, text, pos); err != nil {
				return err
			}
			if codes > 0 && !text.Nulls[pos] {
				memo[text.Codes[pos]] = st
			}
		}
		states = append(states, st)
	}
	for si := range t.specs {
		if err := t.accumulate(si, b, states, nil); err != nil {
			return err
		}
	}
	return nil
}

// resolve finds the group state of the tuple at pos. A non-NULL key of text,
// a lone TEXT key's pure vector (nil when there is none), finds it by its
// payload in byText; any other key is boxed and encoded.
func (t *aggTable) resolve(b *Batch, text *storage.ColVec, pos int) (*aggState, error) {
	byText := text != nil && !text.Nulls[pos]
	if byText {
		if st, ok := t.byText[text.Str[pos]]; ok {
			return st, nil
		}
	}
	if _, err := b.keyValues(t.keyScratch, t.keyCols, t.keys, pos); err != nil {
		return nil, err
	}
	st, err := t.state()
	if err != nil {
		return nil, err
	}
	if byText {
		if t.byText == nil {
			t.byText = make(map[string]*aggState)
		}
		t.byText[text.Str[pos]] = st
	}
	return st, nil
}

// accumulate runs spec si over the batch: the i-th selected position feeds
// states[i], or one when the aggregation has no keys. The func × vector-kind
// dispatch happens once per batch; the typed loops touch only the argument
// vector and skip NULLs exactly like the per-value path (observe), which a
// generic vector or an argument that is not a bare column takes, so
// semantics stay identical.
func (t *aggTable) accumulate(si int, b *Batch, states []*aggState, one *aggState) error {
	spec := &t.specs[si]
	at := func(i int) *aggState {
		if one != nil {
			return one
		}
		return states[i]
	}
	if spec.Star {
		if one != nil {
			one.counts[si] += int64(b.Len())
			return nil
		}
		for _, st := range states {
			st.counts[si]++
		}
		return nil
	}
	col := t.argCol(si)
	var cv *storage.ColVec
	if col >= 0 {
		cv = b.Cols[col]
	}
	if cv == nil || !cv.Pure {
		for i, pos := range b.Sel {
			var v types.Value
			if cv != nil {
				v = cv.Vals[pos]
			} else {
				var err error
				if v, err = spec.Arg(b.RowAt(pos)); err != nil {
					return err
				}
			}
			if v.IsNull() {
				continue // aggregates skip NULLs
			}
			if err := at(i).observe(si, spec, v); err != nil {
				return err
			}
		}
		return nil
	}
	sum := spec.Func == sqlparser.FuncSum || spec.Func == sqlparser.FuncAvg
	switch {
	case spec.Func == sqlparser.FuncCount:
		for i, pos := range b.Sel {
			if !cv.Nulls[pos] {
				at(i).counts[si]++
			}
		}
	case sum && cv.Kind == types.KindInt: // exact int sums with overflow check
		for i, pos := range b.Sel {
			if cv.Nulls[pos] {
				continue
			}
			st := at(i)
			st.counts[si]++
			if st.intOnly[si] {
				if s, ok := addInt64(st.isums[si], cv.I64[pos]); ok {
					st.isums[si] = s
					continue
				}
			}
			st.demoteToFloat(si)
			st.fsums[si] += float64(cv.I64[pos])
		}
	case sum && cv.Kind == types.KindFloat:
		for i, pos := range b.Sel {
			if cv.Nulls[pos] {
				continue
			}
			st := at(i)
			st.counts[si]++
			st.demoteToFloat(si)
			st.fsums[si] += cv.F64[pos]
		}
	case spec.Func == sqlparser.FuncMin || spec.Func == sqlparser.FuncMax:
		for i, pos := range b.Sel {
			if !cv.Nulls[pos] {
				st := at(i)
				st.counts[si]++
				st.minmax(si, pureValue(cv, pos), spec.Func == sqlparser.FuncMax)
			}
		}
	default:
		// SUM/AVG over a non-numeric column, or an unknown aggregate: the
		// per-value path raises its error.
		for i, pos := range b.Sel {
			if cv.Nulls[pos] {
				continue
			}
			if err := at(i).observe(si, spec, pureValue(cv, pos)); err != nil {
				return err
			}
		}
	}
	return nil
}

// minmax folds one non-NULL value into the running extreme of slot si,
// comparing payloads directly when the value and the extreme are of one
// kind; anything else drops to the generic types.Less path.
func (st *aggState) minmax(si int, v types.Value, isMax bool) {
	cur := &st.mins[si]
	if isMax {
		cur = &st.maxs[si]
	}
	c := *cur
	if c.IsNull() || v.Kind() != c.Kind() {
		if isMax {
			st.addMax(si, v)
		} else {
			st.addMin(si, v)
		}
		return
	}
	var d int
	switch v.Kind() {
	case types.KindInt:
		d = cmpI64(v.Int(), c.Int())
	case types.KindTime:
		d = cmpI64(v.TimeNanos(), c.TimeNanos())
	case types.KindFloat:
		d = cmpF64(v.Float(), c.Float())
	case types.KindString:
		d = strings.Compare(v.Str(), c.Str())
	default:
		if isMax {
			st.addMax(si, v)
		} else {
			st.addMin(si, v)
		}
		return
	}
	if d != 0 && (d < 0) != isMax {
		*cur = v
	}
}

// mergeTable folds another table's groups into this one, preserving the
// other table's first-seen group order for groups this table has not seen.
func (t *aggTable) mergeTable(o *aggTable) error {
	for _, ost := range o.order {
		t.keyScratch = t.keyScratch[:0]
		t.keyScratch = append(t.keyScratch, ost.keys...)
		st, err := t.state()
		if err != nil {
			return err
		}
		st.mergeFrom(ost)
	}
	t.keyScratch = make([]types.Value, len(t.keys))
	return nil
}

// emit finalizes every group into one batch the caller owns, a tuple
// [keys..., aggregates...] per group in first-seen order over generic
// vectors, or nil when there is no group. With no grouping keys an empty
// input still emits the single global tuple.
func (t *aggTable) emit(nKeys int) (*Batch, error) {
	if len(t.order) == 0 && nKeys == 0 {
		t.globalState()
	}
	if len(t.order) == 0 {
		return nil, nil
	}
	b := GetBatch()
	b.Shape(nKeys+len(t.specs), len(t.order))
	for c := range b.Cols {
		b.Cols[c] = b.NewVec(types.KindNull)
	}
	for _, st := range t.order {
		for k, v := range st.keys {
			b.Cols[k].Vals = append(b.Cols[k].Vals, v)
		}
		for si := range t.specs {
			v, err := st.value(si, t.specs[si].Func)
			if err != nil {
				PutBatch(b)
				return nil, err
			}
			b.Cols[nKeys+si].Vals = append(b.Cols[nKeys+si].Vals, v)
		}
	}
	b.SelectAll()
	return b, nil
}
