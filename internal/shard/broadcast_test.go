package shard_test

import (
	"strings"
	"testing"
)

// TestReplicatedDMLKeepsItsDivergenceChecks: a replicated table's DML
// reaches every shard as the one statement the router parsed, affects the
// same rows everywhere, and a replica that has drifted is still reported
// rather than averaged away.
func TestReplicatedDMLKeepsItsDivergenceChecks(t *testing.T) {
	r := newRouter(t, 4)
	mustExec(t, r, `CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	if n := mustExec(t, r, `INSERT INTO Heartbeat VALUES ('m1', '2006-03-15 12:00:00'), ('m2', '2006-03-15 12:00:00')`); n != 2 {
		t.Fatalf("replicated INSERT affected %d rows, want 2", n)
	}
	if n := mustExec(t, r, `UPDATE Heartbeat SET recency = '2006-03-15 13:00:00' WHERE sid = 'm1'`); n != 1 {
		t.Fatalf("replicated UPDATE affected %d rows, want 1 (not one per shard)", n)
	}
	if n := mustExec(t, r, `DELETE FROM Heartbeat WHERE sid = 'm2'`); n != 1 {
		t.Fatalf("replicated DELETE affected %d rows, want 1", n)
	}
	for i := 0; i < r.N(); i++ {
		res, err := r.Shard(i).Query(`SELECT sid, recency FROM Heartbeat`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != "m1" || res.Rows[0][1].String() != "2006-03-15 13:00:00" {
			t.Fatalf("shard %d holds %v", i, res.Rows)
		}
	}
	// A partitioned table's counts add up instead.
	for _, m := range []string{"a", "b", "c", "d", "e", "f"} {
		mustExec(t, r, `INSERT INTO Activity VALUES ('`+m+`', 'idle', '2006-03-15 12:00:00')`)
	}
	if n := mustExec(t, r, `UPDATE Activity SET value = 'busy' WHERE value = 'idle'`); n != 6 {
		t.Fatalf("partitioned UPDATE affected %d rows, want 6", n)
	}
	if n := mustExec(t, r, `DELETE FROM Activity WHERE mach_id <> 'a'`); n != 5 {
		t.Fatalf("partitioned DELETE affected %d rows, want 5", n)
	}

	// Shard 2 drifts: it alone holds m9.
	if _, err := r.Shard(2).Exec(`INSERT INTO Heartbeat VALUES ('m9', '2006-03-15 12:00:00')`); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`UPDATE Heartbeat SET recency = '2006-03-15 14:00:00' WHERE sid = 'm9'`,
		`DELETE FROM Heartbeat WHERE sid = 'm9'`,
	} {
		if _, err := r.Exec(sql); err == nil || !strings.Contains(err.Error(), "replicated DML diverged") {
			t.Errorf("%s: error %v, want a divergence report", sql, err)
		}
	}
	// The DELETE above did land on shard 2, so m9 is free again there; a
	// replicated INSERT that one replica rejects names the shard.
	if _, err := r.Shard(3).Exec(`INSERT INTO Heartbeat VALUES ('m7', '2006-03-15 12:00:00')`); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Exec(`INSERT INTO Heartbeat VALUES ('m7', '2006-03-15 12:00:00')`); err == nil || !strings.Contains(err.Error(), "shard 3") {
		t.Errorf("replicated INSERT over a drifted replica: error %v, want shard 3's duplicate key", err)
	}
}
