package shard_test

import (
	"fmt"
	"strings"
	"testing"

	"trac/internal/core/report"
	"trac/internal/engine"
	"trac/internal/shard"
	"trac/internal/sqlparser"
	"trac/internal/types"
	"trac/internal/workload"
)

var equivSpec = workload.Spec{TotalRows: 3000, DataSources: 100}

// buildPair creates the same workload dataset unsharded and behind an
// n-shard router (Activity hash-partitioned, Routing/Heartbeat replicated),
// both with the NullProbe fixture.
func buildPair(t *testing.T, n int) (*engine.DB, *shard.Router) {
	t.Helper()
	db, err := workload.Build(equivSpec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workload.BuildSharded(equivSpec, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range workload.NullProbeStmts() {
		db.MustExec(stmt)
		mustExec(t, r, stmt)
	}
	return db, r
}

// setMode applies one planner configuration to every shard.
func setMode(r *shard.Router, parallelThreshold, maxParallel int) {
	for i := 0; i < r.N(); i++ {
		pl := r.Shard(i).Planner()
		pl.ParallelThreshold = parallelThreshold
		pl.MaxParallel = maxParallel
	}
}

// TestShardedMatchesUnsharded is the cross-shard equivalence property: the
// full corpus (Q1–Q4, generated recency queries, NULL semantics, joins,
// UNION, GROUP BY) at 1, 3 and 8 shards must be row-identical to the
// unsharded engine with serial and with parallel shard plans — the unsharded
// suite already holds its own plans to the reference, so the unsharded
// default plan is the baseline for both.
func TestShardedMatchesUnsharded(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			db, r := buildPair(t, n)
			corpus, err := workload.EquivCorpus(db.Catalog())
			if err != nil {
				t.Fatal(err)
			}
			modes := []struct {
				name              string
				parallelThreshold int
				maxParallel       int
			}{
				{name: "serial"},
				{name: "parallel", parallelThreshold: 50, maxParallel: 4},
			}
			sawScatter := false
			for qi, sql := range corpus {
				res, err := db.Query(sql)
				if err != nil {
					t.Fatalf("q%d unsharded %s: %v", qi, sql, err)
				}
				baseline := workload.RowSet(res)
				for _, m := range modes {
					setMode(r, m.parallelThreshold, m.maxParallel)
					sres, err := r.Query(sql)
					if err != nil {
						t.Fatalf("q%d [%s] sharded %s: %v", qi, m.name, sql, err)
					}
					if sres.Parallel > 1 {
						sawScatter = true
					}
					if got := workload.RowSet(sres); fmt.Sprint(got) != fmt.Sprint(baseline) {
						t.Errorf("q%d [%s] sharded diverges at %d shards\nquery: %s\nunsharded: %v\nsharded:   %v",
							qi, m.name, n, sql, baseline, got)
					}
				}
				setMode(r, 0, 0)
			}
			if n > 1 && !sawScatter {
				t.Error("no corpus query ever fanned out across shards")
			}
		})
	}
}

// TestShardedRecencyUnionPlacement holds recency unions whose arms are
// existence-only on the partitioned table to the unsharded engine, with the
// only qualifying partitioned row on no shard, on the first, on the last, and
// with two arms satisfied on different shards: the anchored walk must ask
// past every shard whose partition left an arm's probe exhausted.
func TestShardedRecencyUnionPlacement(t *testing.T) {
	const hb = `SELECT DISTINCT trac_h.sid AS sid, trac_h.recency AS recency FROM Heartbeat trac_h`
	union := hb + `, Activity A WHERE trac_h.sid NOT IN ('Tao1', 'Tao10') AND A.value = 'mark-a' UNION ` +
		hb + `, Routing R WHERE R.neighbor = trac_h.sid AND R.mach_id IN ('Tao1', 'Tao10')`
	split := hb + `, Activity A WHERE trac_h.sid LIKE 'Tao1%' AND A.value = 'mark-a' UNION ` +
		hb + `, Routing R, Activity A WHERE R.neighbor = trac_h.sid AND R.mach_id IN ('Tao2', 'Tao3') AND A.value = 'mark-b'`
	for _, n := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			db, r := buildPair(t, n)
			on := func(s int) string {
				for i := 1; i <= equivSpec.DataSources; i++ {
					if sid := workload.SourceName(i); r.ShardOf(types.NewString(sid)) == s {
						return sid
					}
				}
				t.Fatalf("no source hashes to shard %d", s)
				return ""
			}
			first, last := on(0), on(n-1)
			for _, tc := range []struct {
				name  string
				marks map[string]string // value -> mach_id of its one row
			}{
				{"on no shard", nil},
				{"on shard 0", map[string]string{"mark-a": first}},
				{"on the last shard", map[string]string{"mark-a": last}},
				{"split, first and last", map[string]string{"mark-a": first, "mark-b": last}},
				{"split, last and first", map[string]string{"mark-a": last, "mark-b": first}},
			} {
				for value, sid := range tc.marks {
					sql := fmt.Sprintf(`INSERT INTO Activity VALUES ('%s', '%s', NULL)`, sid, value)
					db.MustExec(sql)
					mustExec(t, r, sql)
				}
				for _, sql := range []string{union, split} {
					res, err := db.Query(sql)
					if err != nil {
						t.Fatal(err)
					}
					sres, err := r.Query(sql)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := workload.RowSet(sres), workload.RowSet(res); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s: sharded diverges\nquery: %s\nunsharded: %v\nsharded:   %v", tc.name, sql, want, got)
					}
				}
				const unmark = `DELETE FROM Activity WHERE value IN ('mark-a', 'mark-b')`
				db.MustExec(unmark)
				mustExec(t, r, unmark)
			}
		})
	}
}

// TestShardedMatchesUnshardedSealed repeats the default-mode corpus run over
// dual-format heaps: both sides sealed into columnar segments in small
// chunks, then grown identical unsealed row tails, so scans cross zone-map
// pruning and the row tail on every shard.
func TestShardedMatchesUnshardedSealed(t *testing.T) {
	db, r := buildPair(t, 3)
	for _, name := range db.Catalog().Names() {
		tbl, err := db.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tbl.SetSealThreshold(200)
	}
	for i := 0; i < r.N(); i++ {
		cat := r.Shard(i).Catalog()
		for _, name := range cat.Names() {
			tbl, err := cat.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			tbl.SetSealThreshold(200)
		}
	}
	db.SealAll()
	r.SealAll()
	for _, sql := range []string{
		`INSERT INTO Activity VALUES ('src-tail', 'idle', '2006-03-15 00:01:00')`,
		`INSERT INTO Activity VALUES ('src-tail', 'busy', NULL)`,
		`INSERT INTO Routing VALUES ('src-tail', 'Tao1', '2006-03-15 00:01:00')`,
		`INSERT INTO NullProbe VALUES (7, NULL, 0.45)`,
		`INSERT INTO NullProbe VALUES (8, 'idle', NULL)`,
	} {
		db.MustExec(sql)
		mustExec(t, r, sql)
	}
	corpus, err := workload.EquivCorpus(db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	for qi, sql := range corpus {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("q%d unsharded: %v", qi, err)
		}
		sres, err := r.Query(sql)
		if err != nil {
			t.Fatalf("q%d sharded: %v", qi, err)
		}
		if got, want := workload.RowSet(sres), workload.RowSet(res); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("q%d sealed-mixed diverges\nquery: %s\nunsharded: %v\nsharded:   %v", qi, sql, want, got)
		}
	}
}

// TestShardedRecencyReportMatches compares the full recency report — result
// rows, relevant-source classification, least/most recency and the bound of
// inconsistency — between report.Run on the unsharded engine and
// Router.RecencyReport at several shard counts, for Q1–Q4 and an
// unselective probe, with a Heartbeat row whose recency is NULL (a source
// that never reported: skipped, not reported). A second fixture partitions
// Routing instead of Activity, so that the recency union of a Q3-form query
// ties the partitioned relation to the anchor: no shard can answer it alone,
// and the router gathers its blocks as rows before the report reads them.
func TestShardedRecencyReportMatches(t *testing.T) {
	queries := []string{}
	for _, name := range []string{"Q1", "Q2", "Q3", "Q4"} {
		sql, err := workload.Query(name)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, sql)
	}
	queries = append(queries, `SELECT mach_id, value FROM Activity WHERE value = 'idle'`)
	const tied = `SELECT COUNT(*) FROM Routing R, Activity A WHERE R.mach_id IN ('Tao1', 'Tao4', 'Tao7') AND R.neighbor = A.mach_id AND A.value = 'idle'`
	const nullRecency = `INSERT INTO Heartbeat VALUES ('TaoNull', NULL)`

	compare := func(t *testing.T, db *engine.DB, r *shard.Router, qi int, sql string) {
		t.Helper()
		for _, cfg := range []report.Config{
			{},
			{Method: report.Naive, SkipTempTables: true},
		} {
			sess := db.NewSession()
			want, err := report.Run(sess, sql, cfg)
			if err != nil {
				t.Fatalf("q%d unsharded report: %v", qi, err)
			}
			ssess := r.Shard(0).NewSession()
			got, err := r.RecencyReport(ssess, sql, cfg)
			if err != nil {
				t.Fatalf("q%d sharded report: %v", qi, err)
			}
			if a, b := workload.RowSet(got.Result), workload.RowSet(want.Result); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Errorf("q%d: result rows diverge\nsharded:   %v\nunsharded: %v", qi, a, b)
			}
			if got.Empty != want.Empty || got.RecencySQL != want.RecencySQL {
				t.Errorf("q%d: generated recency query diverges: empty %v/%v sql %q vs %q",
					qi, got.Empty, want.Empty, got.RecencySQL, want.RecencySQL)
			}
			if len(got.Normal) != len(want.Normal) || len(got.Exceptional) != len(want.Exceptional) {
				t.Fatalf("q%d: classification diverges: %d/%d normal, %d/%d exceptional",
					qi, len(got.Normal), len(want.Normal), len(got.Exceptional), len(want.Exceptional))
			}
			for i := range got.Normal {
				if got.Normal[i] != want.Normal[i] {
					t.Errorf("q%d: normal[%d] = %+v, want %+v", qi, i, got.Normal[i], want.Normal[i])
				}
			}
			for _, sr := range append(got.Normal, got.Exceptional...) {
				if sr.Sid == "TaoNull" {
					t.Errorf("q%d: a source with a NULL recency was reported", qi)
				}
			}
			if got.Least != want.Least || got.Most != want.Most || got.Bound != want.Bound {
				t.Errorf("q%d: bound diverges: [%v, %v] width %v vs [%v, %v] width %v",
					qi, got.Least, got.Most, got.Bound, want.Least, want.Most, want.Bound)
			}
			sess.Close()
			ssess.Close()
		}
	}

	for _, n := range []int{1, 3, 8} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			db, r := buildPair(t, n)
			db.MustExec(nullRecency)
			mustExec(t, r, nullRecency)
			for qi, sql := range queries {
				compare(t, db, r, qi, sql)
			}
			// Sessions persisting temp tables bump only shard 0; the router
			// must settle versions so later cuts stay coherent.
			r.SettleVersions()
			if _, err := r.Query(`SELECT COUNT(*) FROM Activity`); err != nil {
				t.Fatalf("query after reports: %v", err)
			}
		})
		t.Run(fmt.Sprintf("tied/shards=%d", n), func(t *testing.T) {
			db, r := routingPartitioned(t, n)
			db.MustExec(nullRecency)
			mustExec(t, r, nullRecency)
			rep, err := report.Run(db.NewSession(), tied, report.Config{SkipTempTables: true})
			if err != nil || rep.RecencySQL == "" {
				t.Fatalf("recency query of %s: %q, %v", tied, rep.RecencySQL, err)
			}
			if plan, err := r.Explain(rep.RecencySQL); err != nil || strings.Contains(plan, "anchored union on one shard") {
				t.Fatalf("the recency union should gather block by block: %v\n%s", err, plan)
			}
			compare(t, db, r, len(queries), tied)
		})
	}
}

// routingPartitioned builds a small grid twice, unsharded and behind an
// n-shard router that hash-partitions Routing by its source column and
// replicates Activity and Heartbeat.
func routingPartitioned(t *testing.T, n int) (*engine.DB, *shard.Router) {
	t.Helper()
	db := engine.New()
	r, err := shard.New(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`,
		`CREATE TABLE Routing (mach_id TEXT, neighbor TEXT, event_time TIMESTAMP)`,
		`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`,
	} {
		db.MustExec(sql)
		mustExec(t, r, sql)
	}
	if err := r.Partition("Routing", "mach_id"); err != nil {
		t.Fatal(err)
	}
	setSources := func(eng *engine.DB) error {
		for _, name := range []string{"Activity", "Routing"} {
			tbl, err := eng.Catalog().Get(name)
			if err != nil {
				return err
			}
			if err := tbl.Schema.SetSourceColumn("mach_id"); err != nil {
				return err
			}
		}
		eng.Catalog().BumpVersion()
		return nil
	}
	if err := setSources(db); err != nil {
		t.Fatal(err)
	}
	if err := r.Atomic(setSources); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		value := "busy"
		if i%3 != 0 {
			value = "idle"
		}
		for _, sql := range []string{
			fmt.Sprintf(`INSERT INTO Heartbeat VALUES ('Tao%d', '2006-03-15 12:%02d:00')`, i, i%5),
			fmt.Sprintf(`INSERT INTO Activity VALUES ('Tao%d', '%s', '2006-03-15 11:00:00')`, i, value),
			fmt.Sprintf(`INSERT INTO Routing VALUES ('Tao%d', 'Tao%d', '2006-03-15 11:00:00')`, i, i%12+1),
		} {
			db.MustExec(sql)
			mustExec(t, r, sql)
		}
	}
	return db, r
}

// TestShardedReportTempTables checks a sharded report's temp tables
// materialize on shard 0's session and stay queryable through the router
// (non-partitioned tables route to shard 0), with SettleVersions healing the
// shard-0-only catalog bumps that session persistence performs.
func TestShardedReportTempTables(t *testing.T) {
	_, r := buildPair(t, 3)
	sess := r.Shard(0).NewSession()
	defer sess.Close()
	sql, err := workload.Query("Q1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.RecencyReport(sess, sql, report.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NormalTable == "" {
		t.Fatal("report did not materialize a normal temp table")
	}
	r.SettleVersions()
	res, err := r.Query(`SELECT COUNT(*) FROM ` + rep.NormalTable)
	if err != nil {
		t.Fatalf("temp table not queryable through router: %v", err)
	}
	if got := res.Rows[0][0].Int(); got != int64(len(rep.Normal)) {
		t.Errorf("temp table has %d rows, report has %d normal sources", got, len(rep.Normal))
	}
	if rep.Bound < 0 {
		t.Errorf("negative bound of inconsistency %v", rep.Bound)
	}
}

// TestShardedTemplateMatchesFreshPlan is the template-vs-fresh path
// equivalence across 3 shards: every corpus statement is parsed once, run
// through the router twice (a statement's first tree is not kept) and then
// three more times while rows are inserted, the heaps sealed, rows deleted
// and a Heartbeat row updated in between. From the second of the counted
// runs on, the shards re-bind their templates of the statement's scatter
// blocks;
// each answer must equal a fresh plan under the same cut (the statement's
// text with its keyword in lower case, which the scatter cache keys apart,
// parsed anew) and the unsharded engine after the same writes.
func TestShardedTemplateMatchesFreshPlan(t *testing.T) {
	db, r := buildPair(t, 3)
	corpus, err := workload.EquivCorpus(db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	sels := make([]*sqlparser.SelectStmt, len(corpus))
	for i, sql := range corpus {
		if sels[i], err = sqlparser.ParseSelect(sql); err != nil {
			t.Fatal(err)
		}
	}
	hits := func() uint64 {
		var n uint64
		for i := 0; i < r.N(); i++ {
			h, _ := r.Shard(i).Planner().TemplateStats()
			n += h
		}
		return n
	}
	for qi, sel := range sels {
		if _, err := r.QueryStmtAt(sel, corpus[qi], mustCut(t, r)); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 4; run++ {
		if run > 0 {
			for _, sql := range []string{
				fmt.Sprintf(`INSERT INTO Activity VALUES ('Tao1', 'idle', '2006-03-15 01:0%d:00')`, run),
				fmt.Sprintf(`INSERT INTO Activity VALUES ('tmpl-%d', 'busy', NULL)`, run),
				fmt.Sprintf(`INSERT INTO Routing VALUES ('Tao2', 'tmpl-%d', '2006-03-15 01:00:00')`, run),
				fmt.Sprintf(`DELETE FROM Activity WHERE mach_id = 'Tao%d'`, 4+run),
				fmt.Sprintf(`UPDATE Heartbeat SET recency = '2006-03-16 00:0%d:00' WHERE sid = 'Tao3'`, run),
			} {
				db.MustExec(sql)
				mustExec(t, r, sql)
			}
			if run == 1 {
				db.SealAll()
				r.SealAll()
			}
		}
		for qi, sel := range sels {
			cut := mustCut(t, r)
			before := hits()
			got, err := r.QueryStmtAt(sel, corpus[qi], cut)
			if err != nil {
				t.Fatalf("run %d q%d %s: %v", run, qi, corpus[qi], err)
			}
			if run > 0 && hits() == before {
				t.Errorf("run %d q%d: no shard re-bound a template: %s", run, qi, corpus[qi])
			}
			freshSQL := "select" + strings.TrimPrefix(corpus[qi], "SELECT")
			fresh, err := sqlparser.ParseSelect(freshSQL)
			if err != nil {
				t.Fatal(err)
			}
			want, err := r.QueryStmtAt(fresh, freshSQL, cut)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := workload.RowSet(got), workload.RowSet(want); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Errorf("run %d q%d: template and fresh plan disagree\nquery: %s\nfresh:    %v\ntemplate: %v", run, qi, corpus[qi], w, g)
			}
			res, err := db.Query(corpus[qi])
			if err != nil {
				t.Fatal(err)
			}
			if g, w := workload.RowSet(got), workload.RowSet(res); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Errorf("run %d q%d: sharded template diverges from unsharded\nquery: %s\nunsharded: %v\nsharded:   %v", run, qi, corpus[qi], w, g)
			}
		}
	}
}

func mustCut(t *testing.T, r *shard.Router) shard.Cut {
	t.Helper()
	cut, err := r.Cut()
	if err != nil {
		t.Fatal(err)
	}
	return cut
}
