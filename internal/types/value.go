// Package types defines the value model shared by every layer of the TRAC
// engine: SQL literals, stored tuples, expression evaluation, and the
// domain descriptions used by satisfiability reasoning and brute-force
// relevant-source enumeration.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The value kinds supported by the engine.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "TEXT"
	case KindTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// TimeLayout is the canonical textual form for timestamps, matching the
// paper's examples ("2006-03-15 14:20:05").
const TimeLayout = "2006-01-02 15:04:05"

// timeLayoutFrac adds a timestamp's fractional seconds, rendered only when
// non-zero: a whole-second time formats exactly as TimeLayout does.
const timeLayoutFrac = TimeLayout + ".999999999"

// Value is a tagged union holding one SQL value. The zero Value is NULL.
//
// Time values are stored as Unix nanoseconds in the integer slot so that
// comparison and arithmetic stay allocation-free on the hot path.
type Value struct {
	kind Kind
	i    int64 // KindInt, KindTime (unix nanos), KindBool (0/1)
	f    float64
	s    string
}

// Null is the NULL value.
var Null = Value{}

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewInt returns a 64-bit integer value.
func NewInt(i int64) Value { return Value{kind: KindInt, i: i} }

// NewFloat returns a double-precision value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, f: f} }

// NewString returns a text value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewTime returns a timestamp value with nanosecond precision.
func NewTime(t time.Time) Value { return Value{kind: KindTime, i: t.UnixNano()} }

// NewTimeNanos returns a timestamp value from raw Unix nanoseconds.
func NewTimeNanos(ns int64) Value { return Value{kind: KindTime, i: ns} }

// Kind reports the value's runtime type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload. It panics if the value is not a boolean;
// callers are expected to have checked Kind.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s value", v.kind))
	}
	return v.i != 0
}

// Int returns the integer payload.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return v.i
}

// Float returns the floating-point payload.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("types: Float() on %s value", v.kind))
	}
	return v.f
}

// Str returns the string payload.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s value", v.kind))
	}
	return v.s
}

// Time returns the timestamp payload.
func (v Value) Time() time.Time {
	if v.kind != KindTime {
		panic(fmt.Sprintf("types: Time() on %s value", v.kind))
	}
	return time.Unix(0, v.i)
}

// TimeNanos returns the timestamp payload as Unix nanoseconds.
func (v Value) TimeNanos() int64 {
	if v.kind != KindTime {
		panic(fmt.Sprintf("types: TimeNanos() on %s value", v.kind))
	}
	return v.i
}

// AsFloat converts a numeric value (int or float) to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// String renders the value for display (unquoted strings).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		return time.Unix(0, v.i).UTC().Format(TimeLayout)
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// SQL renders the value as a SQL literal suitable for re-parsing, e.g. by the
// recency-query generator.
func (v Value) SQL() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		s := strconv.FormatFloat(v.f, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindTime:
		return "TIMESTAMP '" + time.Unix(0, v.i).UTC().Format(timeLayoutFrac) + "'"
	default:
		return "NULL"
	}
}

// Comparable reports whether two kinds can be ordered against each other.
// Numeric kinds are mutually comparable; every other kind only compares to
// itself. NULL compares to nothing (SQL unknown semantics are handled by the
// evaluator, not here).
func Comparable(a, b Kind) bool {
	if a == KindNull || b == KindNull {
		return false
	}
	if a == b {
		return true
	}
	return isNumeric(a) && isNumeric(b)
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

// Compare orders two non-NULL values: -1 if a < b, 0 if equal, +1 if a > b.
// It returns an error for incomparable kinds (e.g. TEXT vs BIGINT); the SQL
// layer surfaces that as a type error rather than silently coercing.
func Compare(a, b Value) (int, error) {
	if a.kind == KindNull || b.kind == KindNull {
		return 0, fmt.Errorf("types: cannot compare NULL values")
	}
	if a.kind == b.kind {
		switch a.kind {
		case KindBool, KindInt, KindTime:
			return cmpInt64(a.i, b.i), nil
		case KindFloat:
			return cmpFloat64(a.f, b.f), nil
		case KindString:
			return strings.Compare(a.s, b.s), nil
		}
	}
	if isNumeric(a.kind) && isNumeric(b.kind) {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return cmpFloat64(af, bf), nil
	}
	return 0, fmt.Errorf("types: cannot compare %s to %s", a.kind, b.kind)
}

// Equal reports whether two values are equal under Compare semantics.
// Two NULLs are considered identical here (useful for tuple identity and
// index keys); SQL's NULL = NULL → UNKNOWN is the evaluator's business.
func Equal(a, b Value) bool {
	if a.kind == KindNull && b.kind == KindNull {
		return true
	}
	if a.kind == KindNull || b.kind == KindNull {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Less is a total order over all values, NULLs first, then by kind for
// incomparable kinds. It is used for index keys and ORDER BY, where a
// deterministic total order is required even across kinds.
func Less(a, b Value) bool {
	if a.kind == KindNull {
		return b.kind != KindNull
	}
	if b.kind == KindNull {
		return false
	}
	if c, err := Compare(a, b); err == nil {
		return c < 0
	}
	return kindRank(a.kind) < kindRank(b.kind)
}

func kindRank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	case KindTime:
		return 4
	default:
		return 5
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	default:
		// NaN: order NaNs first deterministically.
		if math.IsNaN(a) && !math.IsNaN(b) {
			return -1
		}
		if !math.IsNaN(a) && math.IsNaN(b) {
			return 1
		}
		return 0
	}
}

// ParseTime parses the canonical timestamp layout, accepting an optional
// fractional-second suffix. A time a Value cannot hold as int64 Unix
// nanoseconds (before 1677 or after 2262) is an error, not a wrapped value.
func ParseTime(s string) (time.Time, error) {
	for _, layout := range []string{TimeLayout, timeLayoutFrac, "2006-01-02", time.RFC3339} {
		if t, err := time.Parse(layout, s); err == nil {
			if t.Before(time.Unix(0, math.MinInt64)) || t.After(time.Unix(0, math.MaxInt64)) {
				return time.Time{}, fmt.Errorf("types: timestamp %q is out of range", s)
			}
			return t.UTC(), nil
		}
	}
	return time.Time{}, fmt.Errorf("types: cannot parse timestamp %q", s)
}
