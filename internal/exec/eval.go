package exec

import (
	"fmt"

	"trac/internal/constraint"
	"trac/internal/sqlparser"
	"trac/internal/types"
)

// Evaluator computes one value from a joined tuple. Boolean expressions
// return a BOOLEAN value or NULL for SQL's UNKNOWN.
type Evaluator func(row []types.Value) (types.Value, error)

// Compile translates an expression AST into an evaluator against the given
// layout. It performs name resolution, light type checking, and coercion of
// string literals to timestamps where they are compared against TIMESTAMP
// columns (so `event_time > '2006-03-15 00:00:00'` works as in the paper's
// examples).
func Compile(e sqlparser.Expr, layout *Layout) (Evaluator, error) {
	c := &compiler{layout: layout}
	return c.compile(e)
}

// CompileHook intercepts compilation of subtrees: returning handled=true
// substitutes the returned evaluator for the node. The planner uses it to
// map GROUP BY keys and aggregate calls onto positions of the grouped
// intermediate tuple.
type CompileHook func(e sqlparser.Expr) (ev Evaluator, handled bool, err error)

// CompileWith is Compile with a node-interception hook.
func CompileWith(e sqlparser.Expr, layout *Layout, hook CompileHook) (Evaluator, error) {
	c := &compiler{layout: layout, hook: hook}
	return c.compile(e)
}

type compiler struct {
	layout *Layout
	hook   CompileHook
}

func (c *compiler) compile(e sqlparser.Expr) (Evaluator, error) {
	if c.hook != nil {
		if ev, handled, err := c.hook(e); err != nil {
			return nil, err
		} else if handled {
			return ev, nil
		}
	}
	switch n := e.(type) {
	case *sqlparser.Literal:
		v := n.Val
		return func([]types.Value) (types.Value, error) { return v, nil }, nil

	case *sqlparser.ColumnRef:
		off, err := c.layout.Resolve(n.Table, n.Column)
		if err != nil {
			return nil, err
		}
		return func(row []types.Value) (types.Value, error) { return row[off], nil }, nil

	case *sqlparser.Comparison:
		left, right := n.Left, n.Right
		c.coerceTimePair(&left, &right)
		le, err := c.compile(left)
		if err != nil {
			return nil, err
		}
		re, err := c.compile(right)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(row []types.Value) (types.Value, error) {
			lv, err := le(row)
			if err != nil {
				return types.Null, err
			}
			rv, err := re(row)
			if err != nil {
				return types.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			cmp, err := types.Compare(lv, rv)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(cmpSatisfies(cmp, op)), nil
		}, nil

	case *sqlparser.Logical:
		le, err := c.compile(n.Left)
		if err != nil {
			return nil, err
		}
		re, err := c.compile(n.Right)
		if err != nil {
			return nil, err
		}
		if n.Op == sqlparser.LogicAnd {
			return func(row []types.Value) (types.Value, error) {
				lv, err := le(row)
				if err != nil {
					return types.Null, err
				}
				if isFalse(lv) {
					return types.NewBool(false), nil
				}
				rv, err := re(row)
				if err != nil {
					return types.Null, err
				}
				if isFalse(rv) {
					return types.NewBool(false), nil
				}
				if lv.IsNull() || rv.IsNull() {
					return types.Null, nil
				}
				return types.NewBool(true), nil
			}, nil
		}
		return func(row []types.Value) (types.Value, error) {
			lv, err := le(row)
			if err != nil {
				return types.Null, err
			}
			if isTrue(lv) {
				return types.NewBool(true), nil
			}
			rv, err := re(row)
			if err != nil {
				return types.Null, err
			}
			if isTrue(rv) {
				return types.NewBool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(false), nil
		}, nil

	case *sqlparser.Not:
		ie, err := c.compile(n.Expr)
		if err != nil {
			return nil, err
		}
		return func(row []types.Value) (types.Value, error) {
			v, err := ie(row)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() {
				return types.Null, nil
			}
			if v.Kind() != types.KindBool {
				return types.Null, fmt.Errorf("exec: NOT applied to %s", v.Kind())
			}
			return types.NewBool(!v.Bool()), nil
		}, nil

	case *sqlparser.In:
		expr := n.Expr
		items := make([]sqlparser.Expr, len(n.List))
		copy(items, n.List)
		for i := range items {
			c.coerceTimePair(&expr, &items[i])
		}
		ee, err := c.compile(expr)
		if err != nil {
			return nil, err
		}
		list := make([]Evaluator, len(items))
		for i, item := range items {
			list[i], err = c.compile(item)
			if err != nil {
				return nil, err
			}
		}
		negated := n.Negated
		return func(row []types.Value) (types.Value, error) {
			v, err := ee(row)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() {
				return types.Null, nil
			}
			sawNull := false
			for _, ie := range list {
				iv, err := ie(row)
				if err != nil {
					return types.Null, err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				if cmp, err := types.Compare(v, iv); err == nil && cmp == 0 {
					return types.NewBool(!negated), nil
				}
			}
			if sawNull {
				return types.Null, nil
			}
			return types.NewBool(negated), nil
		}, nil

	case *sqlparser.Between:
		expr, lo, hi := n.Expr, n.Lo, n.Hi
		c.coerceTimePair(&expr, &lo)
		c.coerceTimePair(&expr, &hi)
		ee, err := c.compile(expr)
		if err != nil {
			return nil, err
		}
		loe, err := c.compile(lo)
		if err != nil {
			return nil, err
		}
		hie, err := c.compile(hi)
		if err != nil {
			return nil, err
		}
		negated := n.Negated
		return func(row []types.Value) (types.Value, error) {
			v, err := ee(row)
			if err != nil {
				return types.Null, err
			}
			lv, err := loe(row)
			if err != nil {
				return types.Null, err
			}
			hv, err := hie(row)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() || lv.IsNull() || hv.IsNull() {
				return types.Null, nil
			}
			cl, err := types.Compare(v, lv)
			if err != nil {
				return types.Null, err
			}
			ch, err := types.Compare(v, hv)
			if err != nil {
				return types.Null, err
			}
			in := cl >= 0 && ch <= 0
			if negated {
				in = !in
			}
			return types.NewBool(in), nil
		}, nil

	case *sqlparser.Like:
		ee, err := c.compile(n.Expr)
		if err != nil {
			return nil, err
		}
		pe, err := c.compile(n.Pattern)
		if err != nil {
			return nil, err
		}
		negated := n.Negated
		return func(row []types.Value) (types.Value, error) {
			v, err := ee(row)
			if err != nil {
				return types.Null, err
			}
			p, err := pe(row)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() || p.IsNull() {
				return types.Null, nil
			}
			if v.Kind() != types.KindString || p.Kind() != types.KindString {
				return types.Null, fmt.Errorf("exec: LIKE requires TEXT operands")
			}
			m := constraint.MatchLike(v.Str(), p.Str())
			if negated {
				m = !m
			}
			return types.NewBool(m), nil
		}, nil

	case *sqlparser.IsNull:
		ee, err := c.compile(n.Expr)
		if err != nil {
			return nil, err
		}
		negated := n.Negated
		return func(row []types.Value) (types.Value, error) {
			v, err := ee(row)
			if err != nil {
				return types.Null, err
			}
			isNull := v.IsNull()
			if negated {
				isNull = !isNull
			}
			return types.NewBool(isNull), nil
		}, nil

	case *sqlparser.Arith:
		le, err := c.compile(n.Left)
		if err != nil {
			return nil, err
		}
		re, err := c.compile(n.Right)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(row []types.Value) (types.Value, error) {
			lv, err := le(row)
			if err != nil {
				return types.Null, err
			}
			rv, err := re(row)
			if err != nil {
				return types.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			return evalArith(op, lv, rv)
		}, nil

	case *sqlparser.FuncCall:
		return nil, fmt.Errorf("exec: aggregate %s is only allowed in a select list", n.Name)

	default:
		return nil, fmt.Errorf("exec: cannot compile %T", e)
	}
}

// coerceTimePair rewrites a string literal to a timestamp literal when the
// opposite side is a TIMESTAMP column, in either position.
func (c *compiler) coerceTimePair(a, b *sqlparser.Expr) {
	c.coerceOne(a, b)
	c.coerceOne(b, a)
}

func (c *compiler) coerceOne(colSide, litSide *sqlparser.Expr) {
	col, ok1 := (*colSide).(*sqlparser.ColumnRef)
	lit, ok2 := (*litSide).(*sqlparser.Literal)
	if !ok1 || !ok2 {
		return
	}
	if _, kind, ok := colOffset(c.layout, col); ok {
		if v := constraint.Coerce(lit.Val, kind); v.Kind() != lit.Val.Kind() {
			*litSide = &sqlparser.Literal{Val: v}
		}
	}
}

func cmpSatisfies(cmp int, op sqlparser.CmpOp) bool {
	switch op {
	case sqlparser.CmpEq:
		return cmp == 0
	case sqlparser.CmpNe:
		return cmp != 0
	case sqlparser.CmpLt:
		return cmp < 0
	case sqlparser.CmpLe:
		return cmp <= 0
	case sqlparser.CmpGt:
		return cmp > 0
	case sqlparser.CmpGe:
		return cmp >= 0
	default:
		return false
	}
}

func evalArith(op sqlparser.ArithOp, a, b types.Value) (types.Value, error) {
	// Integer arithmetic stays integral; any float operand promotes.
	if a.Kind() == types.KindInt && b.Kind() == types.KindInt {
		x, y := a.Int(), b.Int()
		switch op {
		case sqlparser.ArithAdd:
			return types.NewInt(x + y), nil
		case sqlparser.ArithSub:
			return types.NewInt(x - y), nil
		case sqlparser.ArithMul:
			return types.NewInt(x * y), nil
		case sqlparser.ArithDiv:
			if y == 0 {
				return types.Null, fmt.Errorf("exec: division by zero")
			}
			return types.NewInt(x / y), nil
		}
	}
	x, okx := a.AsFloat()
	y, oky := b.AsFloat()
	if !okx || !oky {
		return types.Null, fmt.Errorf("exec: arithmetic on %s and %s", a.Kind(), b.Kind())
	}
	switch op {
	case sqlparser.ArithAdd:
		return types.NewFloat(x + y), nil
	case sqlparser.ArithSub:
		return types.NewFloat(x - y), nil
	case sqlparser.ArithMul:
		return types.NewFloat(x * y), nil
	case sqlparser.ArithDiv:
		if y == 0 {
			return types.Null, fmt.Errorf("exec: division by zero")
		}
		return types.NewFloat(x / y), nil
	}
	return types.Null, fmt.Errorf("exec: unknown arithmetic operator")
}

func isTrue(v types.Value) bool  { return v.Kind() == types.KindBool && v.Bool() }
func isFalse(v types.Value) bool { return v.Kind() == types.KindBool && !v.Bool() }

// EvalPredicate runs a compiled predicate with SQL WHERE semantics: NULL
// (unknown) filters the row out.
func EvalPredicate(ev Evaluator, row []types.Value) (bool, error) {
	if ev == nil {
		return true, nil
	}
	v, err := ev(row)
	if err != nil {
		return false, err
	}
	return isTrue(v), nil
}
