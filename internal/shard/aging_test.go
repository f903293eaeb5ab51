package shard_test

import (
	"fmt"
	"testing"

	"trac/internal/engine"
)

// TestKeyedWritesAndScansCostLiveRows pins version aging: a table rewritten
// in place for as long as the system runs — Heartbeat, one row per source,
// updated with every ingested row — is written and read at the cost of its
// live rows, not of every version it ever held. After 200 updates of every
// key, with aborted updaters sprinkled in and one deleter still in flight,
// the versions a keyed UPDATE and a Heartbeat scan check for visibility
// (storage.Table.VersionsVisited) stay within a small constant of |live|,
// on one engine and behind a 3-shard router (Heartbeat replicated).
func TestKeyedWritesAndScansCostLiveRows(t *testing.T) {
	const keys, rounds = 100, 200
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var (
				dbs   []*engine.DB
				exec  func(string) (int, error)
				count func(string) (int, error)
			)
			if shards == 0 {
				db := engine.New()
				dbs, exec = []*engine.DB{db}, db.Exec
				count = func(sql string) (int, error) {
					res, err := db.Query(sql)
					if err != nil {
						return 0, err
					}
					return len(res.Rows), nil
				}
			} else {
				r := newRouter(t, shards)
				for i := 0; i < shards; i++ {
					dbs = append(dbs, r.Shard(i))
				}
				exec = r.Exec
				count = func(sql string) (int, error) {
					res, err := r.Query(sql)
					if err != nil {
						return 0, err
					}
					return len(res.Rows), nil
				}
			}
			must := func(sql string) {
				t.Helper()
				if n, err := exec(sql); err != nil || n > 1 {
					t.Fatalf("%s: %d rows, %v", sql, n, err)
				}
			}
			visited := func() (sum int64) {
				for _, db := range dbs {
					tbl, err := db.Catalog().Get("Heartbeat")
					if err != nil {
						t.Fatal(err)
					}
					sum += tbl.VersionsVisited()
				}
				return sum
			}
			const scan = `SELECT sid, recency FROM Heartbeat`
			update := func(k, round int) string {
				return fmt.Sprintf(`UPDATE Heartbeat SET recency = '2006-03-15 12:%02d:%02d' WHERE sid = 'k%d'`, round/60, round%60, k)
			}

			must(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
			for k := 0; k < keys; k++ {
				must(fmt.Sprintf(`INSERT INTO Heartbeat VALUES ('k%d', '2006-03-15 12:00:00')`, k))
			}
			var held []*engine.Batch // k0's deleter, in flight to the end
			for round := 1; round <= rounds; round++ {
				if round == rounds/4 {
					for _, db := range dbs {
						b := db.BeginBatch()
						if _, err := b.Exec(`DELETE FROM Heartbeat WHERE sid = 'k0'`); err != nil {
							t.Fatal(err)
						}
						held = append(held, b)
					}
				}
				if round%10 == 0 {
					// An updater that aborts: its deleter mark and the
					// version it created are both void.
					for _, db := range dbs {
						b := db.BeginBatch()
						if _, err := b.Exec(update(round%keys+1, round)); err != nil {
							t.Fatal(err)
						}
						if err := b.Abort(); err != nil {
							t.Fatal(err)
						}
					}
				}
				for k := 0; k < keys; k++ {
					if k == 0 && held != nil {
						continue
					}
					must(update(k, round))
				}
				// Reports read Heartbeat all day; that is what summarizes
				// superseded versions (Segment.NoteLive).
				if n, err := count(scan); err != nil || n != keys {
					t.Fatalf("round %d: scan returned %d rows, %v", round, n, err)
				}
			}
			for _, db := range dbs {
				tbl, _ := db.Catalog().Get("Heartbeat")
				if n := tbl.NumVersions(); n < (keys-1)*rounds {
					t.Fatalf("only %d versions: the bound below would prove nothing", n)
				}
			}

			before := visited()
			for k := 1; k < keys; k++ {
				must(update(k, rounds+1))
			}
			perShard := (visited() - before) / int64(len(dbs))
			if perShard > 4*keys {
				t.Errorf("%d keyed UPDATEs checked %d versions per database, want <= %d", keys-1, perShard, 4*keys)
			}
			t.Logf("keyed UPDATEs: %d versions checked per database for %d keys", perShard, keys-1)

			before = visited()
			if n, err := count(scan); err != nil || n != keys {
				t.Fatalf("scan returned %d rows, %v", n, err)
			}
			scanned := visited() - before // a replicated table is scanned on one shard
			if scanned > 8*keys {
				t.Errorf("a Heartbeat scan checked %d versions for %d live rows, want <= %d", scanned, keys, 8*keys)
			}
			t.Logf("Heartbeat scan: %d versions checked for %d live rows", scanned, keys)

			for _, b := range held {
				if err := b.Abort(); err != nil {
					t.Fatal(err)
				}
			}
			if n, err := count(scan + ` WHERE sid = 'k0'`); err != nil || n != 1 {
				t.Fatalf("k0 after its deleter aborted: %d rows, %v", n, err)
			}
		})
	}
}
