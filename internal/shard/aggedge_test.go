package shard_test

import (
	"fmt"
	"strings"
	"testing"

	"trac/internal/engine"
	"trac/internal/shard"
	"trac/internal/types"
)

// TestShardedAggregateEdges holds the merge of per-shard group tables to the
// unsharded engine where the partials meet at an edge: integer SUM and AVG
// whose per-shard sums fit in int64 while their total does not, aggregates
// over a column that is NULL on every row of some shards, and global
// aggregates whose WHERE matches no row on any shard. Every value is a
// multiple of 4,096 and every total stays below 2^65, so each float step of
// the overflow fallback is exact and both sides must agree to the bit. Each
// statement runs over the tail and again over sealed segments (zone-map
// stats), at 3 and 8 shards.
func TestShardedAggregateEdges(t *testing.T) {
	const big = 3 << 60 // one per shard: 3 shards overflow int64, 8 stay below 2^65
	stmts := []string{
		`SELECT SUM(x), AVG(x), COUNT(x) FROM T`,
		`SELECT g, SUM(x), AVG(x) FROM T GROUP BY g`,
		`SELECT MIN(y), MAX(y), SUM(y), AVG(y), COUNT(y) FROM T`,
		`SELECT g, MIN(y), MAX(y), SUM(y), AVG(y) FROM T GROUP BY g`,
		`SELECT MIN(y), MAX(y), SUM(y), AVG(y), COUNT(y) FROM T WHERE y IS NULL`,
		`SELECT COUNT(*), SUM(x), AVG(x), MIN(y), MAX(y) FROM T WHERE x < 0`,
		`SELECT COUNT(*), SUM(x), AVG(y), MAX(g) FROM T WHERE x < 0 AND y > 0`,
		`SELECT COUNT(*) + 1, MAX(x) - MIN(x) FROM T WHERE x < 0`,
	}
	for _, n := range []int{3, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			twin := engine.New()
			r, err := shard.New(n)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			both := func(sql string) {
				t.Helper()
				twin.MustExec(sql)
				mustExec(t, r, sql)
			}
			both(`CREATE TABLE T (k TEXT, g TEXT, x BIGINT, y BIGINT)`)
			if err := r.Partition("T", "k"); err != nil {
				t.Fatal(err)
			}
			// Two keys per shard. y is NULL on every row of the even
			// shards; x holds one big value per shard beside small ones.
			perShard := make([][]string, n)
			for i := 0; ; i++ {
				k := fmt.Sprintf("k%d", i)
				if s := r.ShardOf(types.NewString(k)); len(perShard[s]) < 2 {
					perShard[s] = append(perShard[s], k)
				}
				full := 0
				for _, ks := range perShard {
					if len(ks) == 2 {
						full++
					}
				}
				if full == n {
					break
				}
			}
			for s, ks := range perShard {
				y := func(v int) string {
					if s%2 == 0 {
						return "NULL"
					}
					return fmt.Sprint(v * 4096)
				}
				both(fmt.Sprintf(`INSERT INTO T VALUES ('%s', 'g%d', %d, %s)`, ks[0], s%2, big, y(s+1)))
				both(fmt.Sprintf(`INSERT INTO T VALUES ('%s', 'g%d', %d, %s)`, ks[1], s%3, 4096*(s+1), y(-s)))
			}
			for _, sealed := range []bool{false, true} {
				if sealed {
					twin.SealAll()
					r.SealAll()
				}
				for _, sql := range stmts {
					want, err := twin.Query(sql)
					if err != nil {
						t.Fatalf("one engine %s: %v", sql, err)
					}
					got, err := r.Query(sql)
					if err != nil {
						t.Fatalf("sharded %s: %v", sql, err)
					}
					if w, g := typedRows(want), typedRows(got); w != g {
						t.Errorf("sealed=%v %s\none engine: %s\nsharded:    %s", sealed, sql, w, g)
					}
				}
			}
			// The edge is real: the one engine's SUM left int64 too.
			res, err := twin.Query(stmts[0])
			if err != nil {
				t.Fatal(err)
			}
			if k := res.Rows[0][0].Kind(); k != types.KindFloat {
				t.Errorf("SUM over %d shards' partials is %s, want the FLOAT past int64", n, k)
			}
		})
	}
}

// typedRows renders rows with every value's kind, in the order given.
func typedRows(res *engine.Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			fmt.Fprintf(&sb, "%s:%s ", v.Kind(), v)
		}
		sb.WriteString("| ")
	}
	return sb.String()
}
