package planner

import (
	"fmt"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// PartitionKeys extracts the literal partition-key bound for one FROM
// binding of tbl from a single SELECT block's WHERE clause: the points of
// the first top-level AND conjunct that pins the partition column col to a
// point set (`col = lit`, `col IN (lits...)`). The points have the column's
// kind, so hashing them agrees with hashing the values routed at insert
// time.
//
// ok=false means the block carries no such bound — the shard router must
// fall back to scattering across every shard. This is deliberately the same
// predicate shape the recency generator's relevant-source bound reduces to
// for source-keyed tables (Q1-style probes), which is what makes the
// relevant-source set a shard-pruning predicate.
func PartitionKeys(where sqlparser.Expr, binding string, tbl *storage.Table, col int) ([]types.Value, bool) {
	if where == nil {
		return nil, false
	}
	keys := equalityKeys(readAll(tbl, binding, splitAnd(where)), col)
	return keys, keys != nil
}

// ShardNote renders the scatter planner's EXPLAIN line: how many shards the
// query actually touches out of the total, and how many the partition-key
// bound pruned away.
func ShardNote(touched, total, pruned int) string {
	return fmt.Sprintf("shards: %d of %d, pruned %d", touched, total, pruned)
}
