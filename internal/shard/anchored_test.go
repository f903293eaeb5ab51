package shard_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"trac/internal/engine"
	"trac/internal/types"
)

// TestAnchoredGathers covers the two gathers of a DISTINCT block that draws
// its output from a replicated table. With the partitioned table only
// required to be non-empty, the whole statement — a lone block or a recency
// UNION — runs on one shard through the engine's anchored union, and the next
// shard is asked only while an existence probe over the partition came back
// exhausted; with the partitioned table tied to the anchor, per-shard subsets
// are united as row sets. Every answer is held to a one-engine twin.
func TestAnchoredGathers(t *testing.T) {
	r := newRouter(t, 4)
	twin := engine.New()
	exec := func(sql string) {
		t.Helper()
		mustExec(t, r, sql)
		twin.MustExec(sql)
	}
	twin.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`)
	twin.MustExec(`CREATE TABLE Routing (mach_id TEXT, neighbor TEXT, event_time TIMESTAMP)`)
	exec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	var all []string
	onShard := map[int]string{} // a source whose Activity rows live on the shard
	for i := 1; i <= 12; i++ {
		sid := fmt.Sprintf("Tao%d", i)
		all = append(all, sid)
		onShard[r.ShardOf(types.NewString(sid))] = sid
		exec(fmt.Sprintf(`INSERT INTO Heartbeat VALUES ('%s', '2006-03-15 12:00:00')`, sid))
		exec(fmt.Sprintf(`INSERT INTO Activity VALUES ('%s', 'busy', '2006-03-15 12:00:00')`, sid))
	}
	sort.Strings(all)
	first, last := onShard[0], onShard[r.N()-1]
	if first == "" || last == "" {
		t.Fatalf("no source hashes to shard 0 or %d: %v", r.N()-1, onShard)
	}
	sorted := func(res *engine.Result, err error) []string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			out[i] = row[0].Str() + "@"
			for _, v := range row[1:] {
				out[i] += v.String() + ","
			}
		}
		sort.Strings(out)
		return out
	}
	sids := func(sql string) []string {
		t.Helper()
		got := sorted(r.Query(sql))
		if want := sorted(twin.Query(sql)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s\nsharded:  %v\none engine: %v", sql, got, want)
		}
		for i, s := range got {
			got[i] = s[:strings.IndexByte(s, '@')]
		}
		sort.Strings(got)
		return got
	}
	// asked counts, per shard, the statements its planner was handed.
	asked := func() []uint64 {
		var n []uint64
		for i := 0; i < r.N(); i++ {
			h, m := r.Shard(i).Planner().TemplateStats()
			n = append(n, h+m)
		}
		return n
	}
	anchored := "anchored union on one shard (next shard only while a partitioned existence probe is exhausted)"

	existence := `SELECT DISTINCT h.sid, h.recency FROM Heartbeat h, Activity A WHERE A.value = 'idle'`
	if plan, err := r.Explain(existence); err != nil || !strings.Contains(plan, "scatter: shards: 1 of 4, pruned 0, "+anchored) {
		t.Fatalf("explain: %v\n%s", err, plan)
	}
	if got := sids(existence); len(got) != 0 {
		t.Errorf("no idle row on any shard, yet %v", got)
	}
	// One idle row, on whichever shard its key hashes to: the shards before
	// it find no idle row and the walk moves on.
	for i := 1; i <= 12; i++ {
		sid := fmt.Sprintf("Tao%d", i)
		exec(fmt.Sprintf(`UPDATE Activity SET value = 'idle' WHERE mach_id = '%s'`, sid))
		if got := sids(existence); fmt.Sprint(got) != fmt.Sprint(all) {
			t.Fatalf("idle row of %s on shard %d: got %v", sid, r.ShardOf(types.NewString(sid)), got)
		}
		exec(fmt.Sprintf(`UPDATE Activity SET value = 'busy' WHERE mach_id = '%s'`, sid))
	}
	// An anchor that selects nothing runs no probe, so no probe is exhausted
	// and one shard answers — however many shards hold no idle row.
	before := asked()
	if got := sids(`SELECT DISTINCT h.sid, h.recency FROM Heartbeat h, Activity A WHERE h.sid = 'nobody' AND A.value = 'idle'`); len(got) != 0 {
		t.Errorf("empty anchor answered %v", got)
	}
	after, touched := asked(), 0
	for i := range after {
		if after[i] != before[i] {
			touched++
		}
	}
	if touched != 1 {
		t.Errorf("an empty anchor asked %d shards (statements planned per shard %v -> %v), want 1", touched, before, after)
	}

	tied := `SELECT DISTINCT h.sid, h.recency FROM Heartbeat h, Activity A WHERE h.sid = A.mach_id AND A.value = 'idle'`
	if plan, err := r.Explain(tied); err != nil || strings.Contains(plan, anchored) || !strings.Contains(plan, "shards: 4 of 4") {
		t.Fatalf("explain: %v\n%s", err, plan)
	}
	// A join on a non-partition column finds the same anchor row on several
	// shards; the union must report it once.
	exec(`UPDATE Activity SET value = 'idle' WHERE mach_id IN ('Tao2', 'Tao7', 'Tao11')`)
	if got := sids(tied); fmt.Sprint(got) != "[Tao11 Tao2 Tao7]" {
		t.Errorf("tied: %v", got)
	}
	shared := `SELECT DISTINCT h.sid FROM Heartbeat h, Activity A WHERE h.recency = A.event_time`
	if got := sids(shared); fmt.Sprint(got) != fmt.Sprint(all) {
		t.Errorf("every shard matches every source, want each once: %v", got)
	}
	exec(`UPDATE Activity SET value = 'busy' WHERE value = 'idle'`)

	// The arms of a recency query, one of each kind (the Q4 form): the only
	// qualifying partitioned row on no shard, on the first, on the last.
	exec(`INSERT INTO Routing VALUES ('Tao1', 'Tao4', NULL), ('Tao2', 'Tao4', NULL)`)
	union := `SELECT DISTINCT h.sid, h.recency FROM Heartbeat h, Activity A WHERE h.sid NOT IN ('Tao3') AND A.value = 'idle' ` +
		`UNION SELECT DISTINCT h.sid, h.recency FROM Heartbeat h, Routing R WHERE R.neighbor = h.sid`
	if plan, err := r.Explain(union); err != nil || !strings.Contains(plan, "scatter: shards: 1 of 4, pruned 0, "+anchored+"\nshard 0 plan:\nanchored union: 2 arms, 1 anchor scan") {
		t.Fatalf("explain: %v\n%s", err, plan)
	}
	if got := sids(union); fmt.Sprint(got) != "[Tao4]" {
		t.Errorf("union with no idle row: %v", got)
	}
	for _, sid := range []string{first, last} {
		exec(fmt.Sprintf(`UPDATE Activity SET value = 'idle' WHERE mach_id = '%s'`, sid))
		if got := sids(union); len(got) != len(all)-1 {
			t.Errorf("union with the idle row of %s: %v", sid, got)
		}
		exec(fmt.Sprintf(`UPDATE Activity SET value = 'busy' WHERE mach_id = '%s'`, sid))
	}
	// Two existence arms, each satisfied on a different shard only: every
	// shard's answer lacks one arm's rows, and only their union is complete.
	split := `SELECT DISTINCT h.sid, h.recency FROM Heartbeat h, Activity A WHERE h.sid LIKE 'Tao1%' AND A.value = 'idle' ` +
		`UNION SELECT DISTINCT h.sid, h.recency FROM Heartbeat h, Routing R, Activity A WHERE R.neighbor = h.sid AND A.value = 'down'`
	for _, at := range [][2]string{{first, last}, {last, first}} {
		exec(fmt.Sprintf(`UPDATE Activity SET value = 'idle' WHERE mach_id = '%s'`, at[0]))
		exec(fmt.Sprintf(`UPDATE Activity SET value = 'down' WHERE mach_id = '%s'`, at[1]))
		if got := sids(split); fmt.Sprint(got) != "[Tao1 Tao10 Tao11 Tao12 Tao4]" {
			t.Errorf("idle row of %s, down row of %s: %v", at[0], at[1], got)
		}
		exec(`UPDATE Activity SET value = 'busy'`)
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
		res, err := r.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(fmt.Sprint(res.Rows), "Tao4 "); n != 2 {
			t.Errorf("%s\nwant Tao4 at 12:00 and at 13:00, once each: %v", sql, res.Rows)
		}
	}
}
