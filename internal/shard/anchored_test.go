package shard_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"trac/internal/types"
)

// TestAnchoredGathers covers the two gathers of a DISTINCT block that draws
// its output from a replicated table. With the partitioned table only
// required to be non-empty, one shard's answer is everybody's, wherever the
// qualifying partition rows live; with the partitioned table tied to the
// anchor, per-shard subsets are united as row sets.
func TestAnchoredGathers(t *testing.T) {
	r := newRouter(t, 4)
	mustExec(t, r, `CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	var all []string
	for i := 1; i <= 12; i++ {
		sid := fmt.Sprintf("Tao%d", i)
		all = append(all, sid)
		mustExec(t, r, fmt.Sprintf(`INSERT INTO Heartbeat VALUES ('%s', '2006-03-15 12:00:00')`, sid))
		mustExec(t, r, fmt.Sprintf(`INSERT INTO Activity VALUES ('%s', 'busy', '2006-03-15 12:00:00')`, sid))
	}
	sort.Strings(all)
	sids := func(sql string) []string {
		t.Helper()
		res, err := r.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		out := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			out[i] = row[0].Str()
		}
		sort.Strings(out)
		return out
	}

	existence := `SELECT DISTINCT h.sid, h.recency FROM Heartbeat h, Activity A WHERE A.value = 'idle'`
	if plan, err := r.Explain(existence); err != nil || !strings.Contains(plan, "gather: first non-empty answer") {
		t.Fatalf("explain: %v\n%s", err, plan)
	}
	if got := sids(existence); len(got) != 0 {
		t.Errorf("no idle row on any shard, yet %v", got)
	}
	// One idle row, on whichever shard its key hashes to: the shards before
	// it answer nothing and the gather moves on.
	for i := 1; i <= 12; i++ {
		sid := fmt.Sprintf("Tao%d", i)
		mustExec(t, r, fmt.Sprintf(`UPDATE Activity SET value = 'idle' WHERE mach_id = '%s'`, sid))
		if got := sids(existence); fmt.Sprint(got) != fmt.Sprint(all) {
			t.Fatalf("idle row of %s on shard %d: got %v", sid, r.ShardOf(types.NewString(sid)), got)
		}
		mustExec(t, r, fmt.Sprintf(`UPDATE Activity SET value = 'busy' WHERE mach_id = '%s'`, sid))
	}

	tied := `SELECT DISTINCT h.sid, h.recency FROM Heartbeat h, Activity A WHERE h.sid = A.mach_id AND A.value = 'idle'`
	if plan, err := r.Explain(tied); err != nil || strings.Contains(plan, "gather: first non-empty answer") {
		t.Fatalf("explain: %v\n%s", err, plan)
	}
	// A join on a non-partition column finds the same anchor row on several
	// shards; the union must report it once.
	mustExec(t, r, `UPDATE Activity SET value = 'idle' WHERE mach_id IN ('Tao2', 'Tao7', 'Tao11')`)
	if got := sids(tied); fmt.Sprint(got) != "[Tao11 Tao2 Tao7]" {
		t.Errorf("tied: %v", got)
	}
	shared := `SELECT DISTINCT h.sid FROM Heartbeat h, Activity A WHERE h.recency = A.event_time`
	if got := sids(shared); fmt.Sprint(got) != fmt.Sprint(all) {
		t.Errorf("every shard matches every source, want each once: %v", got)
	}

	// The arms of a recency query, one of each kind.
	union := existence + ` UNION SELECT DISTINCT h.sid, h.recency FROM Heartbeat h, Routing R WHERE R.neighbor = h.sid`
	mustExec(t, r, `INSERT INTO Routing VALUES ('Tao1', 'Tao4', NULL), ('Tao2', 'Tao4', NULL)`)
	if got := sids(union); fmt.Sprint(got) != fmt.Sprint(all) {
		t.Errorf("union with an idle row somewhere: %v", got)
	}
	mustExec(t, r, `UPDATE Activity SET value = 'busy' WHERE value = 'idle'`)
	if got := sids(union); fmt.Sprint(got) != "[Tao4]" {
		t.Errorf("union with no idle row: %v", got)
	}

	// A primary key is not a promise: bulk loads skip the check and
	// overlapping writers can both commit a key. The gathers unite whole
	// rows, so a key held twice shows once per distinct row.
	noon, _ := types.ParseTime("2006-03-15 12:00:00")
	one, _ := types.ParseTime("2006-03-15 13:00:00")
	if err := r.LoadRows("Heartbeat", [][]types.Value{
		{types.NewString("Tao4"), types.NewTime(noon)},
		{types.NewString("Tao4"), types.NewTime(one)},
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, r, `UPDATE Activity SET value = 'idle' WHERE mach_id = 'Tao4'`)
	for _, sql := range []string{existence, tied, union} {
		got := sids(sql)
		if n := strings.Count(fmt.Sprint(got), "Tao4"); n != 2 {
			t.Errorf("%s\nwant Tao4 at 12:00 and at 13:00, once each: %v", sql, got)
		}
	}
}
