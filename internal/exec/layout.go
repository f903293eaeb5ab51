// Package exec implements the physical execution layer of the TRAC engine:
// compiled expression evaluation with SQL three-valued logic, and operator
// trees running against MVCC snapshots. Every operator — scans, filters,
// projections, joins, semi-joins, DISTINCT, aggregation, sort, limit and
// union — speaks columnar batches (BatchOperator); tuples are minted only
// where an answer leaves as rows (Drain) and boxed one at a time where a
// compiled Evaluator reads one (Batch.RowAt).
package exec

import (
	"fmt"
	"strings"

	"trac/internal/storage"
)

// Binding is one FROM-list table made addressable in expressions.
type Binding struct {
	Name   string // binding name: alias if present, else table name
	Table  *storage.Table
	Offset int // start offset of this table's columns in the joined tuple
}

// Layout describes the joined-tuple shape produced by a plan subtree: the
// concatenation of the bound tables' columns.
type Layout struct {
	Bindings []Binding
	width    int
}

// NewLayout builds a layout over the given bindings in order.
func NewLayout(bindings []Binding) *Layout {
	l := &Layout{}
	off := 0
	for _, b := range bindings {
		b.Offset = off
		off += b.Table.Schema.NumColumns()
		l.Bindings = append(l.Bindings, b)
	}
	l.width = off
	return l
}

// Width returns the joined-tuple width.
func (l *Layout) Width() int { return l.width }

// Resolve maps a (qualifier, column) reference to an absolute offset in the
// joined tuple. An empty qualifier searches all bindings and errors on
// ambiguity, mirroring SQL name resolution.
func (l *Layout) Resolve(qualifier, column string) (int, error) {
	if qualifier != "" {
		for _, b := range l.Bindings {
			if strings.EqualFold(b.Name, qualifier) {
				ci := b.Table.Schema.ColumnIndex(column)
				if ci < 0 {
					return 0, fmt.Errorf("exec: table %q has no column %q", qualifier, column)
				}
				return b.Offset + ci, nil
			}
		}
		return 0, fmt.Errorf("exec: unknown table or alias %q", qualifier)
	}
	found := -1
	for _, b := range l.Bindings {
		if ci := b.Table.Schema.ColumnIndex(column); ci >= 0 {
			if found >= 0 {
				return 0, fmt.Errorf("exec: column %q is ambiguous", column)
			}
			found = b.Offset + ci
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("exec: unknown column %q", column)
	}
	return found, nil
}

// BindingOf returns the index of the binding owning the given absolute
// offset, or -1 if out of range.
func (l *Layout) BindingOf(offset int) int {
	for i, b := range l.Bindings {
		n := b.Table.Schema.NumColumns()
		if offset >= b.Offset && offset < b.Offset+n {
			return i
		}
	}
	return -1
}

// ColumnAt returns the schema column at an absolute offset.
func (l *Layout) ColumnAt(offset int) (storage.Column, error) {
	for _, b := range l.Bindings {
		n := b.Table.Schema.NumColumns()
		if offset >= b.Offset && offset < b.Offset+n {
			return b.Table.Schema.Columns[offset-b.Offset], nil
		}
	}
	return storage.Column{}, fmt.Errorf("exec: offset %d out of range", offset)
}
