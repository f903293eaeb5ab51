package shard_test

import (
	"fmt"
	"testing"

	"trac/internal/shard"
)

// BenchmarkRouterIngest is the wide_sharded ingest leg in miniature: one
// routed INSERT into the partitioned Activity table and one replicated
// UPDATE of the source's Heartbeat row per ingested event, over 4 shards.
func BenchmarkRouterIngest(b *testing.B) {
	r, err := shard.New(4)
	if err != nil {
		b.Fatal(err)
	}
	for _, ddl := range []string{
		`CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`,
		`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`,
	} {
		if _, err := r.Exec(ddl); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.Partition("Activity", "mach_id"); err != nil {
		b.Fatal(err)
	}
	const sources = 5000
	for s := 0; s < sources; s++ {
		if _, err := r.Exec(fmt.Sprintf(`INSERT INTO Heartbeat VALUES ('Tao%d', '2006-03-15 12:00:00')`, s)); err != nil {
			b.Fatal(err)
		}
	}
	stmts := make([][2]string, 1024)
	for i := range stmts {
		sid := fmt.Sprintf("'Tao%d'", (i*37)%sources)
		ts := fmt.Sprintf("'2006-03-15 13:%02d:%02d'", i/60%60, i%60)
		stmts[i] = [2]string{
			`INSERT INTO Activity VALUES (` + sid + `, 'idle', ` + ts + `)`,
			`UPDATE Heartbeat SET recency = ` + ts + ` WHERE sid = ` + sid,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sql := range stmts[i%len(stmts)] {
			if n, err := r.Exec(sql); err != nil || n != 1 {
				b.Fatalf("%s: %d rows, %v", sql, n, err)
			}
		}
	}
}
