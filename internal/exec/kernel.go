package exec

import (
	"trac/internal/sqlparser"
	"trac/internal/types"
)

// Kernel filters a batch in place: it compacts the selection vector down to
// the tuples whose predicate evaluates to TRUE. SQL three-valued semantics
// are preserved exactly — FALSE and UNKNOWN (NULL operands) both drop the
// tuple, matching EvalPredicate's IsTrue gate.
type Kernel func(b *Batch) error

// CompileKernel translates a predicate into a batch kernel against the
// layout. The top-level AND chain is split and each conjunct is fused into
// a typed loop over the batch's column vectors where possible (a
// column-vs-column comparison, or any conjunct the constraint package reads
// — see fuseConjunct); anything else falls back to the compiled Evaluator
// over boxed scratch tuples, still applied batch-at-a-time. It returns the
// kernel plus the number of fused conjuncts out of the total, for explain
// notes.
//
// A nil expression compiles to a nil kernel (keep everything).
//
// One deliberate divergence from the compiled Evaluator: a fused AND chain
// stops evaluating a tuple as soon as one conjunct is FALSE or UNKNOWN, so a
// later conjunct that would raise a type error on that tuple never runs. The
// Evaluator only short-circuits on FALSE. Both orders are legal under SQL's
// unordered AND; on error-free inputs the outputs are identical.
func CompileKernel(e sqlparser.Expr, layout *Layout) (k Kernel, fused, total int, err error) {
	conjs, fused, err := compileConjuncts(e, layout, 0, 0)
	if err != nil || len(conjs) == 0 {
		return nil, 0, 0, err
	}
	return chainKernels(conjs), fused, len(conjs), nil
}

// chainKernels runs the conjuncts in order, stopping once nothing is left.
func chainKernels(conjs []vecConjunct) Kernel {
	if len(conjs) == 1 {
		return conjs[0].narrow
	}
	return func(b *Batch) error {
		for _, c := range conjs {
			if err := c.narrow(b); err != nil {
				return err
			}
			if b.Len() == 0 {
				return nil
			}
		}
		return nil
	}
}

// splitAndExpr flattens a top-level AND tree into conjuncts.
func splitAndExpr(e sqlparser.Expr) []sqlparser.Expr {
	if l, ok := e.(*sqlparser.Logical); ok && l.Op == sqlparser.LogicAnd {
		return append(splitAndExpr(l.Left), splitAndExpr(l.Right)...)
	}
	return []sqlparser.Expr{e}
}

// colOffset resolves a column reference, returning its tuple offset and
// declared kind.
func colOffset(layout *Layout, cr *sqlparser.ColumnRef) (int, types.Kind, bool) {
	off, err := layout.Resolve(cr.Table, cr.Column)
	if err != nil {
		return 0, types.KindNull, false
	}
	sc, err := layout.ColumnAt(off)
	if err != nil {
		return 0, types.KindNull, false
	}
	return off, sc.Kind, true
}

// cmpSlow is the exact-semantics fallback for one value: types.Compare with
// error propagation, identical to the compiled comparison evaluator.
func cmpSlow(a, b types.Value, op sqlparser.CmpOp) (bool, error) {
	cmp, err := types.Compare(a, b)
	if err != nil {
		return false, err
	}
	return cmpSatisfies(cmp, op), nil
}
