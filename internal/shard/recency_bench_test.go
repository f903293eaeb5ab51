package shard_test

import (
	"fmt"
	"testing"

	"trac/internal/core/recgen"
	"trac/internal/sqlparser"
	"trac/internal/types"
	"trac/internal/workload"
)

// BenchmarkShardedRecencyUnion runs the recency query of a Q4-form report —
// an existence arm over the partitioned Activity table united with a keyed
// arm over replicated Routing, both anchored on Heartbeat — over 5,000
// sources on 4 shards, through the router. "fused": idle rows on every shard,
// so the first shard's anchored union is the answer. "off-shard-0": the only
// idle row lives on the last shard, so the walk asks every shard up to it
// and unites their answers. Each run cross-checks the rows and the shards
// asked.
func BenchmarkShardedRecencyUnion(b *testing.B) {
	const sources = 5000
	r, err := workload.BuildSharded(workload.Spec{TotalRows: 10 * sources, DataSources: sources}, 4)
	if err != nil {
		b.Fatal(err)
	}
	user, err := sqlparser.ParseSelect(workload.Q4())
	if err != nil {
		b.Fatal(err)
	}
	gen, err := recgen.Generate(user, r.Shard(0).Catalog(), recgen.Options{})
	if err != nil || gen.Empty {
		b.Fatalf("recency query of Q4: %v (empty %v)", err, gen != nil && gen.Empty)
	}
	asked := func() []uint64 {
		var n []uint64
		for i := 0; i < r.N(); i++ {
			h, m := r.Shard(i).Planner().TemplateStats()
			n = append(n, h+m)
		}
		return n
	}
	run := func(b *testing.B, shards int) {
		before := asked()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cut, err := r.Cut()
			if err != nil {
				b.Fatal(err)
			}
			res, err := r.QueryStmtAt(gen.Stmt, gen.SQL, cut)
			if err != nil {
				b.Fatal(err)
			}
			if want := sources - workload.ExistingProbes(sources); len(res.Rows) != want {
				b.Fatalf("%d relevant sources, want %d", len(res.Rows), want)
			}
		}
		b.StopTimer()
		after, touched := asked(), 0
		for s := range after {
			if after[s] != before[s] {
				touched++
			}
		}
		if touched != shards {
			b.Fatalf("asked %d shards, want %d", touched, shards)
		}
	}
	b.Run("fused", func(b *testing.B) { run(b, 1) })

	last := r.N() - 1
	for i := 1; ; i++ {
		if sid := workload.SourceName(i); r.ShardOf(types.NewString(sid)) == last {
			if _, err := r.Exec(`UPDATE Activity SET value = 'busy' WHERE value = 'idle'`); err != nil {
				b.Fatal(err)
			}
			if _, err := r.Exec(fmt.Sprintf(`INSERT INTO Activity VALUES ('%s', 'idle', NULL)`, sid)); err != nil {
				b.Fatal(err)
			}
			break
		}
	}
	b.Run("off-shard-0", func(b *testing.B) { run(b, r.N()) })
}
