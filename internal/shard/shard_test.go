package shard_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"trac/internal/engine"
	"trac/internal/shard"
	"trac/internal/types"
)

func normalize(sql string) string { return engine.NormalizeSQL(sql) }

// newRouter builds an n-shard router with Activity partitioned on mach_id
// and Routing replicated, loaded through the SQL path.
func newRouter(t *testing.T, n int) *shard.Router {
	t.Helper()
	r, err := shard.New(n)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, r, `CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`)
	mustExec(t, r, `CREATE TABLE Routing (mach_id TEXT, neighbor TEXT, event_time TIMESTAMP)`)
	if err := r.Partition("Activity", "mach_id"); err != nil {
		t.Fatal(err)
	}
	return r
}

func mustExec(t *testing.T, r *shard.Router, sql string) int {
	t.Helper()
	n, err := r.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return n
}

func TestNewValidatesShardCount(t *testing.T) {
	if _, err := shard.New(0); err == nil {
		t.Fatal("New(0) should fail")
	}
}

func TestPartitionValidation(t *testing.T) {
	r := newRouter(t, 4)
	if err := r.Partition("Activity", "mach_id"); err == nil {
		t.Error("double partition should fail")
	}
	if err := r.Partition("Routing", "no_such_col"); err == nil {
		t.Error("partition on unknown column should fail")
	}
	mustExec(t, r, `INSERT INTO Routing VALUES ('Tao1', 'Tao2', NULL)`)
	if err := r.Partition("Routing", "mach_id"); err == nil {
		t.Error("partition of a table with rows should fail")
	}
	if col, ok := r.PartitionColumn("activity"); !ok || col != "mach_id" {
		t.Errorf("PartitionColumn(activity) = %q, %v", col, ok)
	}
	if _, ok := r.PartitionColumn("Routing"); ok {
		t.Error("Routing should be replicated")
	}
}

// TestInsertRouting checks a partitioned insert lands on exactly the shard
// its key hashes to, and a replicated insert lands everywhere.
func TestInsertRouting(t *testing.T) {
	r := newRouter(t, 4)
	mustExec(t, r, `INSERT INTO Activity VALUES ('Tao1', 'idle', '2006-03-15 00:00:00')`)
	target := r.ShardOf(types.NewString("Tao1"))
	for i := 0; i < r.N(); i++ {
		res, err := r.Shard(i).Query(`SELECT COUNT(*) FROM Activity`)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if i == target {
			want = 1
		}
		if got := res.Rows[0][0].Int(); got != want {
			t.Errorf("shard %d Activity rows = %d, want %d", i, got, want)
		}
	}
	mustExec(t, r, `INSERT INTO Routing VALUES ('Tao1', 'Tao2', NULL)`)
	for i := 0; i < r.N(); i++ {
		res, err := r.Shard(i).Query(`SELECT COUNT(*) FROM Routing`)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != 1 {
			t.Errorf("shard %d Routing rows = %d, want 1 (replicated)", i, got)
		}
	}
}

func TestMultiRowInsertSpansShards(t *testing.T) {
	r := newRouter(t, 4)
	n := mustExec(t, r, `INSERT INTO Activity VALUES `+
		`('Tao1', 'idle', NULL), ('Tao2', 'busy', NULL), ('Tao3', 'idle', NULL), ('Tao4', 'busy', NULL)`)
	if n != 4 {
		t.Fatalf("insert affected %d rows, want 4", n)
	}
	res, err := r.Query(`SELECT COUNT(*) FROM Activity`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 4 {
		t.Fatalf("scattered COUNT(*) = %d, want 4", got)
	}
}

func TestPartitionedDML(t *testing.T) {
	r := newRouter(t, 4)
	mustExec(t, r, `INSERT INTO Activity VALUES ('Tao1', 'idle', NULL), ('Tao2', 'idle', NULL), ('Tao3', 'busy', NULL)`)
	if n := mustExec(t, r, `UPDATE Activity SET value = 'down' WHERE value = 'idle'`); n != 2 {
		t.Errorf("UPDATE affected %d rows across shards, want 2", n)
	}
	if _, err := r.Exec(`UPDATE Activity SET mach_id = 'TaoX'`); err == nil {
		t.Error("UPDATE of the partition column should be rejected")
	}
	if n := mustExec(t, r, `DELETE FROM Activity WHERE value = 'down'`); n != 2 {
		t.Errorf("DELETE affected %d rows across shards, want 2", n)
	}
	res, err := r.Query(`SELECT mach_id FROM Activity`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "Tao3" {
		t.Errorf("rows after DML = %v, want [Tao3]", res.Rows)
	}
	// Replicated DML returns shard 0's count, not the sum over replicas.
	mustExec(t, r, `INSERT INTO Routing VALUES ('Tao1', 'Tao2', NULL)`)
	if n := mustExec(t, r, `UPDATE Routing SET neighbor = 'Tao3'`); n != 1 {
		t.Errorf("replicated UPDATE reported %d rows, want 1", n)
	}
}

func TestExplainShardNotes(t *testing.T) {
	r := newRouter(t, 4)
	mustExec(t, r, `INSERT INTO Activity VALUES ('Tao1', 'idle', NULL), ('Tao2', 'busy', NULL)`)
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT value FROM Activity WHERE mach_id = 'Tao1'`, "shards: 1 of 4, pruned 3"},
		{`SELECT value FROM Activity WHERE value = 'idle'`, "shards: 4 of 4, pruned 0"},
		{`SELECT COUNT(*) FROM Activity WHERE value = 'busy'`, "shards: 4 of 4, pruned 0"},
		{`SELECT mach_id, COUNT(*) FROM Activity GROUP BY mach_id`, "shards: 4 of 4, pruned 0"},
		{`SELECT neighbor FROM Routing WHERE mach_id = 'Tao1'`, "shards: 1 of 4, replicated"},
	}
	for _, c := range cases {
		out, err := r.Explain(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("EXPLAIN %s:\n%s\nmissing %q", c.sql, out, c.want)
		}
		// A statement pruned to one shard runs whole there, as itself.
		if strings.Contains(out, "anchored union") {
			t.Errorf("EXPLAIN %s:\n%s\nnames an anchored union", c.sql, out)
		}
	}
	// An IN-list may hash to fewer shards than it has members; it must
	// never touch more shards than members.
	out, err := r.Explain(`SELECT value FROM Activity WHERE mach_id IN ('Tao1', 'Tao2')`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "of 4, pruned") || strings.Contains(out, "4 of 4") || strings.Contains(out, "3 of 4") {
		t.Errorf("2-key IN should touch at most 2 shards:\n%s", out)
	}
}

func TestScatterPlanCache(t *testing.T) {
	r := newRouter(t, 4)
	mustExec(t, r, `INSERT INTO Activity VALUES ('Tao1', 'idle', NULL)`)
	const q = `SELECT value FROM Activity WHERE mach_id = 'Tao1'`
	if _, err := r.Query(q); err != nil {
		t.Fatal(err)
	}
	cut, err := r.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Cache().Get("scatter:"+normalize(q), cut.Version); !ok {
		t.Error("scatter plan not cached after first execution")
	}
	// DDL bumps every shard's version, so the cached entry must no longer
	// be served at the new cut.
	mustExec(t, r, `CREATE TABLE Extra (x INT)`)
	cut2, err := r.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if cut2.Version == cut.Version {
		t.Fatal("DDL broadcast did not advance the coherent catalog version")
	}
	if _, ok := r.Cache().Get("scatter:"+normalize(q), cut2.Version); ok {
		t.Error("stale scatter plan served after DDL broadcast")
	}
}

func TestStats(t *testing.T) {
	r := newRouter(t, 3)
	mustExec(t, r, `INSERT INTO Activity VALUES ('Tao1', 'idle', NULL), ('Tao2', 'busy', NULL), ('Tao3', 'idle', NULL), ('Tao4', 'busy', NULL)`)
	mustExec(t, r, `INSERT INTO Routing VALUES ('Tao1', 'Tao2', NULL)`)
	r.SealAll()
	actRows, routRows := 0, 0
	for _, st := range r.Stats() {
		switch st.Table {
		case "Activity":
			if !st.Stats.Partitioned {
				t.Errorf("shard %d: Activity not marked partitioned", st.Shard)
			}
			if st.Stats.Partition.Of != 3 || st.Stats.Partition.Column != "mach_id" {
				t.Errorf("shard %d: partition = %+v", st.Shard, st.Stats.Partition)
			}
			actRows += st.Stats.SealedRows + st.Stats.TailRows
		case "Routing":
			if st.Stats.Partitioned {
				t.Errorf("shard %d: Routing marked partitioned", st.Shard)
			}
			routRows += st.Stats.SealedRows + st.Stats.TailRows
		}
	}
	if actRows != 4 {
		t.Errorf("Activity rows across shards = %d, want 4 (disjoint partitions)", actRows)
	}
	if routRows != 3 {
		t.Errorf("Routing rows across shards = %d, want 3 (one replica each)", routRows)
	}
}

// TestDDLBroadcastCoherence is the plan-cache hardening test: while cuts are
// captured as fast as possible on other goroutines, a stream of DDL
// broadcasts must never let any cut observe shards at different catalog
// versions (which is what would let a version-keyed plan cache serve a plan
// compiled against half-applied DDL). Cut versions must also never move
// backwards.
func TestDDLBroadcastCoherence(t *testing.T) {
	r := newRouter(t, 4)
	mustExec(t, r, `INSERT INTO Activity VALUES ('Tao1', 'idle', NULL)`)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				cut, err := r.Cut()
				if err != nil {
					errs <- err
					return
				}
				if cut.Version < last {
					errs <- fmt.Errorf("cut version went backwards: %d -> %d", last, cut.Version)
					return
				}
				last = cut.Version
				// A query planned at this cut must see one coherent schema
				// on every shard it touches.
				if _, err := r.QueryAt(`SELECT COUNT(*) FROM Activity`, cut); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		mustExec(t, r, fmt.Sprintf(`CREATE TABLE Tmp%d (x INT, y TEXT)`, i))
		mustExec(t, r, fmt.Sprintf(`INSERT INTO Tmp%d VALUES (%d, 'v')`, i, i))
		mustExec(t, r, fmt.Sprintf(`DROP TABLE Tmp%d`, i))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent cut: %v", err)
	}
	// After the storm, all shards must agree exactly.
	v0 := r.Shard(0).CatalogVersion()
	for i := 1; i < r.N(); i++ {
		if v := r.Shard(i).CatalogVersion(); v != v0 {
			t.Errorf("shard %d at version %d, shard 0 at %d", i, v, v0)
		}
	}
}

// TestConsistentCutPairedInserts races multi-row inserts whose rows hash to
// different shards against scattered queries: because a cross-shard insert
// holds the cut lock exclusively, every query must observe both rows of a
// pair or neither — a torn pair means the "consistent cut" is not one.
func TestConsistentCutPairedInserts(t *testing.T) {
	r := newRouter(t, 4)
	// Find two source names on different shards.
	a := "Tao1"
	b := ""
	for i := 2; i < 64; i++ {
		name := fmt.Sprintf("Tao%d", i)
		if r.ShardOf(types.NewString(name)) != r.ShardOf(types.NewString(a)) {
			b = name
			break
		}
	}
	if b == "" {
		t.Fatal("no pair of sources hashing to distinct shards")
	}

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.Exec(fmt.Sprintf(
				`INSERT INTO Activity VALUES ('%s', 'p%d', NULL), ('%s', 'p%d', NULL)`, a, i, b, i)); err != nil {
				done <- err
				return
			}
		}
	}()

	for iter := 0; iter < 60; iter++ {
		res, err := r.Query(`SELECT mach_id, COUNT(*) FROM Activity GROUP BY mach_id ORDER BY mach_id`)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int64{}
		for _, row := range res.Rows {
			counts[row[0].String()] = row[1].Int()
		}
		if counts[a] != counts[b] {
			t.Fatalf("iter %d: torn pair visible: %s=%d rows, %s=%d rows", iter, a, counts[a], b, counts[b])
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

// TestSettleVersionsEqualizesShards: after a catalog bump on one shard
// outside the router (a session persisting a temp table there, say) no cut
// can be taken; SettleVersions brings every shard up to the highest version,
// and the next cut succeeds.
func TestSettleVersionsEqualizesShards(t *testing.T) {
	r, err := shard.New(3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustExec(t, r, `CREATE TABLE T (k TEXT)`)
	r.Shard(1).Catalog().BumpVersion()
	r.Shard(1).Catalog().BumpVersion()
	want := r.Shard(1).CatalogVersion()
	if _, err := r.Cut(); err == nil {
		t.Fatal("a cut over skewed catalog versions succeeded")
	}
	r.SettleVersions()
	for i := 0; i < r.N(); i++ {
		if v := r.Shard(i).CatalogVersion(); v != want {
			t.Errorf("shard %d at catalog version %d after SettleVersions, want %d", i, v, want)
		}
	}
	if _, err := r.Cut(); err != nil {
		t.Errorf("cut after SettleVersions: %v", err)
	}
}
