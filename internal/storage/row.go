// Package storage implements the physical layer of the TRAC engine:
// versioned heap tables, B+tree secondary indexes, and the catalog that
// records schema metadata — including which column of each monitored table
// is the data source column and what the column domains are, both of which
// the recency machinery consumes.
package storage

import (
	"sync/atomic"

	"trac/internal/types"
)

// Row is one immutable tuple version in a table's version chain.
//
// The engine uses multiversioning: an UPDATE writes a new Row and marks the
// old one deleted; nothing is changed in place except the transaction
// bookkeeping fields below, which are atomics so that concurrent scans never
// race with writers.
//
// Xmin is the ID of the creating transaction and never changes after the row
// is published. Xmax is the ID of the deleting transaction (0 while live).
// XminSeq/XmaxSeq cache the commit sequence numbers of those transactions
// once known — the moral equivalent of PostgreSQL hint bits — so the common
// visibility check is two atomic loads with no lock and no map lookup.
type Row struct {
	Values []types.Value // immutable after publish

	Xmin    uint64
	XminSeq atomic.Uint64 // 0 = unknown, AbortedSeq = creator aborted
	Xmax    atomic.Uint64 // 0 = live
	XmaxSeq atomic.Uint64 // 0 = unknown, AbortedSeq = deleter aborted
}

// AbortedSeq is the sentinel stored in XminSeq/XmaxSeq when the relevant
// transaction aborted.
const AbortedSeq = ^uint64(0)

// NewRow allocates a row version created by transaction xmin.
func NewRow(values []types.Value, xmin uint64) *Row {
	return &Row{Values: values, Xmin: xmin}
}

// BootstrapRows makes row versions of tuples, committed by the bootstrap
// transaction (Xmin 1, XminSeq 1): every database commits it first, so the
// versions are visible to every snapshot. Rows recovered from a checkpoint
// and the contents of a temp table are born this way. The versions share one
// allocation.
func BootstrapRows(tuples [][]types.Value) []*Row {
	versions := make([]Row, len(tuples))
	rows := make([]*Row, len(tuples))
	for i, vals := range tuples {
		v := &versions[i]
		v.Values, v.Xmin = vals, 1
		v.XminSeq.Store(1)
		rows[i] = v
	}
	return rows
}
