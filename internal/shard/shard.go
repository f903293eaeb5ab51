// Package shard implements sharded scatter-gather execution: a Router
// hash-partitions source-keyed tables across N independent engine shards
// (each with its own heap, segments, zone maps and morsel pool), computes
// the shard set a query must touch from its partition-key bound — the same
// relevant-source bound the recency generator produces, which is what turns
// the paper's relevant-source analysis into shard pruning — and gathers
// per-shard partial results into exactly the rows the unsharded engine
// would return.
//
// Consistency across shards follows DBLog's virtual-cut idea: a query (or a
// recency report) first captures a Cut — one MVCC snapshot per shard plus
// the common catalog version — under a lock that every multi-shard mutation
// holds exclusively. Writes confined to one shard commit atomically within
// that shard, so they need no router-level exclusion; writes spanning
// shards (replicated-table DML, DDL broadcasts, multi-shard inserts) are
// serialized against cut capture, so a report can never observe half of a
// cross-shard change.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"trac/internal/engine"
	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// Router owns N engine shards and routes statements across them.
type Router struct {
	shards []*engine.DB

	// mu is the consistent-cut lock. Cut capture and single multi-statement
	// reads take it shared; every mutation that must land on more than one
	// shard atomically (DDL broadcast, replicated-table DML, a routed
	// insert spanning shards) takes it exclusively. Single-shard writes
	// bypass it: they are atomic within their shard's MVCC, so any cut
	// either sees them committed or not at all.
	mu sync.RWMutex

	// part maps lower(table name) -> partition column name for the tables
	// that are hash-partitioned. Every other table is replicated to all
	// shards by the broadcast paths.
	part map[string]string

	// cache holds scatter plans keyed by normalized SQL, tagged with the
	// coherent catalog version a Cut certifies, so a DDL broadcast (which
	// bumps every shard's version under the exclusive lock) invalidates
	// cached decompositions exactly like it invalidates engine plans.
	cache *engine.PlanCache
}

// New creates a router over n fresh in-memory engine shards.
func New(n int) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	r := &Router{
		shards: make([]*engine.DB, n),
		part:   make(map[string]string),
		cache:  engine.NewPlanCache(0),
	}
	for i := range r.shards {
		r.shards[i] = engine.New()
	}
	return r, nil
}

// N returns the shard count.
func (r *Router) N() int { return len(r.shards) }

// Shard returns shard i's engine. Callers that write through it directly
// bypass the router's routing and cut discipline; it is intended for reads,
// tests and per-shard tuning (planner knobs, seal thresholds).
func (r *Router) Shard(i int) *engine.DB { return r.shards[i] }

// Close closes every shard, reporting all failures.
func (r *Router) Close() error {
	errs := make([]error, len(r.shards))
	for i, db := range r.shards {
		errs[i] = db.Close()
	}
	return errors.Join(errs...)
}

// Cache returns the router's scatter-plan cache.
func (r *Router) Cache() *engine.PlanCache { return r.cache }

// Cut is a consistent cross-shard read point: one MVCC snapshot per shard,
// all captured under the cut lock, plus the catalog version every shard
// agreed on at capture time.
type Cut struct {
	Snaps   []txn.Snapshot
	Version uint64
}

// Cut captures a consistent cut. It asserts catalog-version coherence: under
// the shared lock no DDL broadcast can be in flight, so unequal versions
// mean some shard's catalog was mutated behind the router's back.
func (r *Router) Cut() (Cut, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cutLocked()
}

// cutLocked captures the snapshot vector; callers hold r.mu (either mode).
func (r *Router) cutLocked() (Cut, error) {
	c := Cut{Snaps: make([]txn.Snapshot, len(r.shards)), Version: r.shards[0].CatalogVersion()}
	for i, db := range r.shards {
		if v := db.CatalogVersion(); v != c.Version {
			return Cut{}, fmt.Errorf("shard: catalog version skew (shard 0 at %d, shard %d at %d): a shard was mutated outside the router",
				c.Version, i, v)
		}
		c.Snaps[i] = db.Snapshot()
	}
	return c, nil
}

// Partition declares table as hash-partitioned on column. It must be called
// after the table's DDL has been broadcast and before any rows are loaded;
// repartitioning live data is not supported.
func (r *Router) Partition(table, column string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(table)
	if _, ok := r.part[key]; ok {
		return fmt.Errorf("shard: table %s is already partitioned", table)
	}
	for i, db := range r.shards {
		tbl, err := db.Catalog().Get(table)
		if err != nil {
			return err
		}
		if tbl.Schema.ColumnIndex(column) < 0 {
			return fmt.Errorf("shard: table %s has no column %q", table, column)
		}
		if tbl.NumVersions() > 0 {
			return fmt.Errorf("shard: cannot partition table %s with existing rows on shard %d", table, i)
		}
	}
	for i, db := range r.shards {
		tbl, _ := db.Catalog().Get(table)
		tbl.SetPartition(storage.Partition{Index: i, Of: len(r.shards), Column: column})
	}
	r.part[key] = column
	return nil
}

// PartitionColumn returns the partition column for a table, or ok=false when
// the table is replicated.
func (r *Router) PartitionColumn(table string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	col, ok := r.part[strings.ToLower(table)]
	return col, ok
}

// ShardOf hashes a partition-key value to its shard. NULL keys route to
// shard 0 (they can never match an equality bound, so pruning stays sound).
func (r *Router) ShardOf(v types.Value) int {
	if v.IsNull() {
		return 0
	}
	h := fnv.New32a()
	h.Write(exec.AppendKey(nil, v))
	return int(h.Sum32() % uint32(len(r.shards)))
}

// Exec parses and executes a statement across the shards: SELECTs scatter,
// DML routes by partition key or broadcasts, DDL broadcasts to every shard
// under the exclusive cut lock.
func (r *Router) Exec(sql string) (int, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return 0, err
	}
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		res, err := r.Query(sql)
		if err != nil {
			return 0, err
		}
		return len(res.Rows), nil
	case *sqlparser.InsertStmt:
		return r.execInsert(s)
	case *sqlparser.UpdateStmt:
		if col, ok := r.PartitionColumn(s.Table); ok {
			for _, a := range s.Set {
				if strings.EqualFold(a.Column, col) {
					return 0, fmt.Errorf("shard: UPDATE of partition column %s.%s would require moving rows between shards", s.Table, col)
				}
			}
			return r.broadcastSum(s)
		}
		return r.broadcastReplicated(s)
	case *sqlparser.DeleteStmt:
		if _, ok := r.PartitionColumn(s.Table); ok {
			return r.broadcastSum(s)
		}
		return r.broadcastReplicated(s)
	case *sqlparser.DropTableStmt:
		n, err := r.broadcastDDL(sql)
		if err == nil {
			r.mu.Lock()
			delete(r.part, strings.ToLower(s.Name))
			r.mu.Unlock()
		}
		return n, err
	default:
		// Remaining statements (CREATE TABLE/INDEX, ANALYZE) are
		// shard-local DDL/maintenance applied uniformly everywhere.
		return r.broadcastDDL(sql)
	}
}

// broadcastDDL applies a statement to every shard under the exclusive cut
// lock: no cut can observe some shards at the new catalog version and others
// at the old one, which is what keeps version-keyed plan caches coherent.
func (r *Router) broadcastDDL(sql string) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i, db := range r.shards {
		m, err := db.Exec(sql)
		if err != nil {
			// Roll-forward is impossible for arbitrary DDL; surface how far
			// the broadcast got so the operator can reconcile.
			return 0, fmt.Errorf("shard: DDL broadcast failed on shard %d of %d (earlier shards already applied): %w", i, len(r.shards), err)
		}
		n = m
	}
	return n, nil
}

// broadcastSum executes a DML statement on every shard and sums the affected
// counts — the right combination for a partitioned table, whose rows are
// disjoint across shards. Like broadcastReplicated it hands every shard the
// statement the router already parsed, never its text.
func (r *Router) broadcastSum(stmt sqlparser.Statement) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for i, db := range r.shards {
		n, err := db.ExecStmt(stmt)
		if err != nil {
			return 0, fmt.Errorf("shard: broadcast failed on shard %d (earlier shards already applied): %w", i, err)
		}
		total += n
	}
	return total, nil
}

// broadcastReplicated executes a DML statement on every shard and returns
// shard 0's affected count — replicas are identical, so per-shard counts
// agree and summing would overcount.
func (r *Router) broadcastReplicated(stmt sqlparser.Statement) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	first := 0
	for i, db := range r.shards {
		n, err := db.ExecStmt(stmt)
		if err != nil {
			return 0, fmt.Errorf("shard: broadcast failed on shard %d (earlier shards already applied): %w", i, err)
		}
		if i == 0 {
			first = n
		} else if n != first {
			return 0, fmt.Errorf("shard: replicated DML diverged (shard 0 affected %d rows, shard %d affected %d)", first, i, n)
		}
	}
	return first, nil
}

// Atomic runs fn against every shard under the exclusive cut lock, so the
// whole round is one indivisible event from any Cut's point of view. Used
// for replicated multi-statement mutations (e.g. heartbeat upserts).
func (r *Router) Atomic(fn func(db *engine.DB) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, db := range r.shards {
		if err := fn(db); err != nil {
			return fmt.Errorf("shard: atomic broadcast failed on shard %d (earlier shards already applied): %w", i, err)
		}
	}
	return nil
}

// execInsert routes an INSERT: a partitioned table's rows are grouped by the
// hash of their partition-column value and applied per shard; everything
// else is replicated everywhere. An insert that lands on more than one shard
// takes the exclusive cut lock so a report cannot see a torn multi-row
// insert.
func (r *Router) execInsert(s *sqlparser.InsertStmt) (int, error) {
	col, ok := r.PartitionColumn(s.Table)
	if !ok {
		return r.broadcastReplicated(s)
	}
	tbl, err := r.shards[0].Catalog().Get(s.Table)
	if err != nil {
		return 0, err
	}
	ci := tbl.Schema.ColumnIndex(col)
	// Position of the partition column in the VALUES tuples.
	vi := ci
	if len(s.Columns) > 0 {
		vi = -1
		for i, c := range s.Columns {
			if strings.EqualFold(c, col) {
				vi = i
				break
			}
		}
	}
	emptyLayout := exec.NewLayout(nil)
	perShard := make([][][]sqlparser.Expr, len(r.shards))
	for _, row := range s.Rows {
		target := 0
		if vi >= 0 && vi < len(row) {
			ev, err := exec.Compile(row[vi], emptyLayout)
			if err != nil {
				return 0, err
			}
			v, err := ev(nil)
			if err != nil {
				return 0, err
			}
			v, err = engine.CoerceToColumn(v, tbl.Schema.Columns[ci])
			if err != nil {
				return 0, fmt.Errorf("shard: column %s: %w", col, err)
			}
			target = r.ShardOf(v)
		}
		perShard[target] = append(perShard[target], row)
	}
	targets := 0
	for _, rows := range perShard {
		if len(rows) > 0 {
			targets++
		}
	}
	if targets > 1 {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	return r.applyRoutedInsert(s, perShard)
}

// applyRoutedInsert stages one batch per target shard, executes all of them,
// and commits only when every stage succeeded, so a constraint violation on
// any shard aborts the whole insert.
func (r *Router) applyRoutedInsert(s *sqlparser.InsertStmt, perShard [][][]sqlparser.Expr) (int, error) {
	var batches []*engine.Batch
	abort := func() {
		for _, b := range batches {
			_ = b.Abort()
		}
	}
	total := 0
	for i, rows := range perShard {
		if len(rows) == 0 {
			continue
		}
		sub := &sqlparser.InsertStmt{Table: s.Table, Columns: s.Columns, Rows: rows}
		b := r.shards[i].BeginBatch()
		batches = append(batches, b)
		n, err := b.ExecStmt(sub)
		if err != nil {
			abort()
			return 0, err
		}
		total += n
	}
	for _, b := range batches {
		if err := b.Commit(); err != nil {
			abort() // aborts the not-yet-committed remainder
			return 0, fmt.Errorf("shard: routed insert commit failed (insert may be partially applied): %w", err)
		}
	}
	return total, nil
}

// LoadRows bulk-loads typed rows directly into a table's heap, bypassing the
// SQL layer like workload loading does. Partitioned tables route each row by
// its partition-column value; replicated tables receive every row on every
// shard. The whole load runs under the exclusive cut lock.
func (r *Router) LoadRows(table string, rows [][]types.Value) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	col, partitioned := r.part[strings.ToLower(table)]
	tbl0, err := r.shards[0].Catalog().Get(table)
	if err != nil {
		return err
	}
	if !partitioned {
		for _, db := range r.shards {
			tbl, err := db.Catalog().Get(table)
			if err != nil {
				return err
			}
			if err := bulkAppend(db, tbl, rows); err != nil {
				return err
			}
		}
		return nil
	}
	ci := tbl0.Schema.ColumnIndex(col)
	perShard := make([][][]types.Value, len(r.shards))
	for _, row := range rows {
		target := 0
		if ci < len(row) {
			target = r.ShardOf(row[ci])
		}
		perShard[target] = append(perShard[target], row)
	}
	for i, part := range perShard {
		if len(part) == 0 {
			continue
		}
		tbl, err := r.shards[i].Catalog().Get(table)
		if err != nil {
			return err
		}
		if err := bulkAppend(r.shards[i], tbl, part); err != nil {
			return err
		}
	}
	return nil
}

// bulkAppend inserts rows in chunked transactions (same chunking as the
// workload loader).
func bulkAppend(db *engine.DB, tbl *storage.Table, rows [][]types.Value) error {
	const chunk = 50_000
	for lo := 0; lo < len(rows); lo += chunk {
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		tx := db.Manager().Begin()
		for _, row := range rows[lo:hi] {
			if err := tx.InsertRow(tbl, storage.NewRow(row, 0)); err != nil {
				tx.Abort()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// SealAll seals every shard's tables into columnar segments and returns the
// total rows sealed.
func (r *Router) SealAll() int {
	n := 0
	for _, db := range r.shards {
		n += db.SealAll()
	}
	return n
}

// SettleVersions realigns shard catalog versions after an out-of-band
// mutation on one shard (e.g. a session persisting a temp table on shard 0):
// every shard is bumped up to the maximum version. Versions are opaque
// monotonic counters, so equalizing at the max is safe and evicts any plan
// cached under a stale mixed state.
func (r *Router) SettleVersions() {
	r.mu.Lock()
	defer r.mu.Unlock()
	var max uint64
	for _, db := range r.shards {
		if v := db.CatalogVersion(); v > max {
			max = v
		}
	}
	for _, db := range r.shards {
		for db.CatalogVersion() < max {
			db.Catalog().BumpVersion()
		}
	}
}

// TableStat is one table replica's partition-aware storage summary on one
// shard.
type TableStat struct {
	Shard int
	Table string
	Stats storage.PartitionStats
}

// Stats reports per-shard, per-table partition/seal/zone statistics, shards
// outermost, table names in catalog order.
func (r *Router) Stats() []TableStat {
	var out []TableStat
	for i, db := range r.shards {
		for _, name := range db.Catalog().Names() {
			tbl, err := db.Catalog().Get(name)
			if err != nil {
				continue
			}
			out = append(out, TableStat{Shard: i, Table: name, Stats: tbl.PartitionStats()})
		}
	}
	return out
}
