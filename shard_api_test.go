package trac_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"trac"
)

// TestShardedPublicAPI drives the sharded database through the public
// surface only: open with shards, partition, load through SQL, heartbeat,
// query with pruning, and run a recency report under one consistent cut.
func TestShardedPublicAPI(t *testing.T) {
	db := trac.Open(trac.WithShards(4))
	if db.Shards() != 4 || db.Router() == nil {
		t.Fatalf("Shards() = %d, Router() = %v", db.Shards(), db.Router())
	}
	db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`)
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	if err := db.PartitionTable("Activity", "mach_id"); err != nil {
		t.Fatal(err)
	}
	if err := db.SetSourceColumn("Activity", "mach_id"); err != nil {
		t.Fatal(err)
	}
	if err := db.SetColumnDomain("Activity", "value", trac.StringDomain("busy", "idle")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		db.MustExec(fmt.Sprintf(
			`INSERT INTO Activity VALUES ('Tao%d', 'idle', '2006-03-15 00:00:%02d')`, i, i))
		if err := db.Heartbeat(fmt.Sprintf("Tao%d", i), fmt.Sprintf("2006-03-15 00:10:%02d", i)); err != nil {
			t.Fatal(err)
		}
	}

	res, err := db.Query(`SELECT COUNT(*) FROM Activity`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 8 {
		t.Fatalf("COUNT(*) = %d, want 8", got)
	}

	plan, err := db.Explain(`SELECT value FROM Activity WHERE mach_id = 'Tao1'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "of 4, pruned") {
		t.Errorf("EXPLAIN missing shard-pruning note:\n%s", plan)
	}

	sess := db.NewSession()
	defer sess.Close()
	rep, err := sess.RecencyReport(`SELECT value FROM Activity WHERE mach_id IN ('Tao1', 'Tao2')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Result.Rows) != 2 {
		t.Errorf("user query returned %d rows, want 2", len(rep.Result.Rows))
	}
	if got := len(rep.Normal) + len(rep.Exceptional); got != 2 {
		t.Errorf("report covers %d sources, want 2 (Tao1, Tao2)", got)
	}
	if rep.NormalTable == "" {
		t.Error("sharded report did not materialize temp tables")
	}

	pr, err := db.PrepareReport(`SELECT value FROM Activity WHERE mach_id = 'Tao3'`)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := pr.Execute(sess)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep2.Normal) + len(rep2.Exceptional); got != 1 {
		t.Errorf("prepared report covers %d sources, want 1", got)
	}

	// Durability goes through the backend too: a sharded database says what
	// it cannot do yet instead of answering for shard 0, and Close reaches
	// every shard.
	if err := db.CheckpointDir(); !errors.Is(err, trac.ErrShardedDir) {
		t.Errorf("CheckpointDir on a sharded database = %v, want ErrShardedDir", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("Close on a sharded database: %v", err)
	}
}

// TestPreparedReportSurvivesCatalogChange: a report prepared while the
// probe is provably Empty must not keep saying so once the domain is widened
// — Execute re-prepares on a catalog-version change, on every backend.
func TestPreparedReportSurvivesCatalogChange(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := trac.Open(trac.WithShards(shards))
			db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`)
			db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
			if shards > 1 {
				if err := db.PartitionTable("Activity", "mach_id"); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.SetSourceColumn("Activity", "mach_id"); err != nil {
				t.Fatal(err)
			}
			if err := db.SetColumnDomain("Activity", "value", trac.StringDomain("idle", "busy")); err != nil {
				t.Fatal(err)
			}
			for i, value := range []string{"idle", "busy"} {
				sid := fmt.Sprintf("m%d", i+1)
				db.MustExec(fmt.Sprintf(`INSERT INTO Activity VALUES ('%s', '%s', '2006-03-15 14:00:00')`, sid, value))
				if err := db.Heartbeat(sid, "2006-03-15 14:20:05"); err != nil {
					t.Fatal(err)
				}
			}
			sess := db.NewSession()
			defer sess.Close()

			const probe = `SELECT mach_id FROM Activity WHERE value = 'down'`
			pr, err := db.PrepareReport(probe)
			if err != nil {
				t.Fatal(err)
			}
			before, err := pr.Execute(sess)
			if err != nil {
				t.Fatal(err)
			}
			if !before.Empty {
				t.Fatalf("'down' is outside the domain: report should be provably Empty, got %d sources",
					len(before.Normal)+len(before.Exceptional))
			}

			// 'down' becomes a legal value: any machine could report it next.
			if err := db.SetColumnDomain("Activity", "value", trac.StringDomain("idle", "busy", "down")); err != nil {
				t.Fatal(err)
			}
			fresh, err := sess.RecencyReport(probe)
			if err != nil {
				t.Fatal(err)
			}
			after, err := pr.Execute(sess)
			if err != nil {
				t.Fatal(err)
			}
			want := len(fresh.Normal) + len(fresh.Exceptional)
			if got := len(after.Normal) + len(after.Exceptional); want != 2 || got != want || after.Empty {
				t.Errorf("after widening the domain: prepared Execute reports %d sources (Empty=%v), a fresh report %d, want 2",
					got, after.Empty, want)
			}
		})
	}
}
