package workload_test

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"trac/internal/engine"
	"trac/internal/refeval"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/workload"
)

// equivCorpus assembles the query corpus from the exported workload corpus:
// the paper's four test queries, the recency-report query generated for each
// of them, and ad-hoc shapes covering NULL/UNKNOWN predicates, grouping,
// ordering, DISTINCT, joins and UNION.
func equivCorpus(t *testing.T, db *engine.DB) []string {
	t.Helper()
	corpus, err := workload.EquivCorpus(db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func addNullProbe(t *testing.T, db *engine.DB) {
	t.Helper()
	for _, stmt := range workload.NullProbeStmts() {
		db.MustExec(stmt)
	}
}

// rowSet renders a result as a sorted multiset of canonical row keys.
func rowSet(res *engine.Result) []string {
	return workload.RowSet(res)
}

// equivModes are the planner configurations every corpus statement runs
// under: serial plans, and the same forced onto morsel-parallel scans.
var equivModes = []struct {
	name                           string
	parallelThreshold, maxParallel int
}{
	{name: "serial"},
	{name: "parallel", parallelThreshold: 50, maxParallel: 4},
}

// setMode applies one planner configuration.
func setMode(db *engine.DB, parallelThreshold, maxParallel int) {
	pl := db.Planner()
	pl.ParallelThreshold, pl.MaxParallel = parallelThreshold, maxParallel
}

// rendered renders a result the way internal/refeval does: one "v1|v2|…"
// string per row, sorted.
func rendered(res *engine.Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		vals := make([]string, len(row))
		for j, v := range row {
			vals[j] = v.String()
		}
		out[i] = strings.Join(vals, "|")
	}
	sort.Strings(out)
	return out
}

// maxRefTuples bounds the cross product the reference evaluator is asked to
// materialize; larger joins are held to the serial engine run instead.
const maxRefTuples = 100_000

// reference evaluates a statement with internal/refeval when it can: an SPJ
// block (DISTINCT and UNION allowed; no ORDER BY, LIMIT, aggregation or
// star) whose cross product stays under maxRefTuples.
func reference(db *engine.DB, sql string) ([]string, bool) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil || len(sel.OrderBy) > 0 || sel.Limit != nil {
		return nil, false
	}
	for _, b := range append([]*sqlparser.SelectStmt{sel}, sel.Union...) {
		tuples := 1
		for _, ref := range b.From {
			tbl, err := db.Catalog().Get(ref.Name)
			if err != nil {
				return nil, false
			}
			tuples *= max(len(tbl.Rows()), 1)
		}
		if tuples > maxRefTuples {
			return nil, false
		}
	}
	want, err := refeval.Eval(db.Catalog(), db.Snapshot(), sel)
	return want, err == nil
}

// runEquivModes runs every corpus query in every mode on db and holds each
// answer to a baseline: the reference evaluator for the statements it
// evaluates, and otherwise the serial run of the same statement on base — an
// unsealed one-engine twin of db (db itself when db is unsealed). It returns
// how many statements were held to the reference.
func runEquivModes(t *testing.T, db, base *engine.DB, corpus []string) int {
	t.Helper()
	refs, sawVectorized := 0, false
	for qi, sql := range corpus {
		want, isRef := reference(db, sql)
		var baseline []string
		if isRef {
			refs++
		} else {
			setMode(base, 0, 0)
			res, err := base.Query(sql)
			if err != nil {
				t.Fatalf("q%d [baseline] %s: %v", qi, sql, err)
			}
			baseline = rowSet(res)
		}
		for _, m := range equivModes {
			setMode(db, m.parallelThreshold, m.maxParallel)
			res, err := db.Query(sql)
			if err != nil {
				t.Fatalf("q%d [%s] %s: %v", qi, m.name, sql, err)
			}
			sawVectorized = sawVectorized || res.Vectorized
			switch {
			case isRef:
				if got := rendered(res); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("q%d [%s] diverges from the reference evaluator\nquery: %s\nref: %v\ngot: %v",
						qi, m.name, sql, want, got)
				}
			default:
				if got := rowSet(res); fmt.Sprint(got) != fmt.Sprint(baseline) {
					t.Errorf("q%d [%s] diverges from the serial unsealed run\nquery: %s\nbase: %v\ngot:  %v",
						qi, m.name, sql, baseline, got)
				}
			}
		}
		setMode(db, 0, 0)
	}
	if !sawVectorized {
		t.Error("no corpus query ever executed vectorized")
	}
	return refs
}

// TestVectorizedMatchesRowExecution is the executor's equivalence property
// over the plain (unsealed) workload heap: serial and parallel plans agree
// with the reference evaluator, and with each other where it cannot go.
func TestVectorizedMatchesRowExecution(t *testing.T) {
	db, err := workload.Build(workload.Spec{TotalRows: 4000, DataSources: 100})
	if err != nil {
		t.Fatal(err)
	}
	addNullProbe(t, db)
	corpus := equivCorpus(t, db)
	refs := runEquivModes(t, db, db, corpus)
	t.Logf("%d of %d statements held to the reference evaluator", refs, len(corpus))
	if refs < len(corpus)/3 {
		t.Errorf("only %d of %d statements held to the reference evaluator", refs, len(corpus))
	}
}

// TestMixedSealedUnsealedEquivalence repeats the run over a dual-format
// heap: every table is sealed into column segments, then grown an unsealed
// row tail, so each scan crosses the zone-map-pruned columnar path and the
// tail within one query. The baseline beyond the reference evaluator is an
// unsealed twin with the same rows: it has no segments, so no stats, and a
// global aggregate the sealed side answers from zone maps must come out as
// the twin's scan does.
func TestMixedSealedUnsealedEquivalence(t *testing.T) {
	spec := workload.Spec{TotalRows: 4000, DataSources: 100}
	db, err := workload.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := workload.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	addNullProbe(t, db)
	addNullProbe(t, twin)
	// Seal in small chunks so zone-map pruning has multiple segments to
	// work with, then append tail rows that stay below the threshold.
	for _, name := range db.Catalog().Names() {
		tbl, err := db.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tbl.SetSealThreshold(300)
	}
	db.SealAll()
	for _, sql := range []string{
		`INSERT INTO Activity VALUES ('src-tail', 'idle', '2006-03-15 00:01:00')`,
		`INSERT INTO Activity VALUES ('src-tail', 'busy', NULL)`,
		`INSERT INTO Routing VALUES ('src-tail', 'Tao1', '2006-03-15 00:01:00')`,
		`INSERT INTO NullProbe VALUES (7, NULL, 0.45)`,
		`INSERT INTO NullProbe VALUES (8, 'idle', NULL)`,
	} {
		db.MustExec(sql)
		twin.MustExec(sql)
	}

	act, err := db.Catalog().Get("Activity")
	if err != nil {
		t.Fatal(err)
	}
	if act.NumSegments() < 2 || act.NumVersions() == act.SealedRows() {
		t.Fatalf("Activity not mixed: %d segments, %d/%d rows sealed",
			act.NumSegments(), act.SealedRows(), act.NumVersions())
	}
	corpus := equivCorpus(t, db)
	runEquivModes(t, db, twin, corpus)

	// The comparison with the twin must have covered stat-answered segments.
	stat := regexp.MustCompile(`agg: ([1-9]\d*) segments answered from stats`)
	answered := 0
	for _, sql := range corpus {
		plan, err := db.ExplainAt(sql, db.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if stat.MatchString(plan) {
			answered++
		}
	}
	if answered == 0 {
		t.Error("no corpus statement answered a segment from zone-map stats")
	}
}

// TestAggregateRacingAppends aggregates a sealed-plus-tail heap while a
// background writer keeps appending rows, alternating serial (stat-answered)
// and parallel plans. Each snapshot
// must be internally consistent: COUNT(*) equals COUNT(mach_id) (the column
// is never NULL), and counts never move backwards across queries. Run under
// -race this also checks the stat-fold path reads zone maps and tails safely
// against concurrent inserts and seals.
func TestAggregateRacingAppends(t *testing.T) {
	db, err := workload.Build(workload.Spec{TotalRows: 1000, DataSources: 20})
	if err != nil {
		t.Fatal(err)
	}
	act, err := db.Catalog().Get("Activity")
	if err != nil {
		t.Fatal(err)
	}
	// Small threshold so the writer keeps pushing the tail over the seal
	// boundary mid-test: aggregates race against both appends and seals.
	act.SetSealThreshold(200)
	db.SealAll()

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
			if _, err := db.Exec(fmt.Sprintf(
				`INSERT INTO Activity VALUES ('race-%03d', 'busy', '2006-03-15 00:02:00')`, i%50)); err != nil {
				done <- err
				return
			}
		}
	}()

	var lastCount int64
	for iter := 0; iter < 40; iter++ {
		m := equivModes[iter%len(equivModes)]
		setMode(db, m.parallelThreshold, m.maxParallel)
		res, err := db.Query(`SELECT COUNT(*), COUNT(mach_id) FROM Activity`)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("iter %d: got %d rows", iter, len(res.Rows))
		}
		star, col := res.Rows[0][0].Int(), res.Rows[0][1].Int()
		if star != col {
			t.Fatalf("iter %d: COUNT(*)=%d but COUNT(mach_id)=%d", iter, star, col)
		}
		if star < lastCount {
			t.Fatalf("iter %d: count went backwards %d -> %d", iter, lastCount, star)
		}
		lastCount = star
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	setMode(db, 0, 0)
}

// TestTemplateMatchesFreshPlan is the template-vs-fresh path equivalence:
// every corpus statement is parsed once, planned twice (a statement's first
// tree is not kept) and then run through its plan template three times while
// the database changes under it — rows inserted into a sealed heap's tail,
// the tail sealed, rows deleted, a Heartbeat row updated. Every run after
// the first must re-bind the template, and each answer must equal a fresh
// plan of the statement at the same snapshot, and the reference evaluator
// where it applies.
func TestTemplateMatchesFreshPlan(t *testing.T) {
	db, err := workload.Build(workload.Spec{TotalRows: 4000, DataSources: 100})
	if err != nil {
		t.Fatal(err)
	}
	addNullProbe(t, db)
	for _, name := range db.Catalog().Names() {
		tbl, err := db.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tbl.SetSealThreshold(300)
	}
	db.SealAll()
	corpus := equivCorpus(t, db)
	sels := make([]*sqlparser.SelectStmt, len(corpus))
	for i, sql := range corpus {
		if sels[i], err = sqlparser.ParseSelect(sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, sel := range sels {
		if _, err := db.QueryStmtAt(sel, db.Snapshot()); err != nil {
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
			}
			if run == 1 {
				// NullProbe has six rows: one more is within the drift a
				// template survives, two more are not.
				db.MustExec(`INSERT INTO NullProbe VALUES (10, 'idle', 0.3)`)
				db.SealAll()
			}
		}
		snap := db.Snapshot()
		for i, sel := range sels {
			hits, _ := db.Planner().TemplateStats()
			got, err := db.QueryStmtAt(sel, snap)
			if err != nil {
				t.Fatalf("run %d q%d %s: %v", run, i, corpus[i], err)
			}
			if again, _ := db.Planner().TemplateStats(); run > 0 && again == hits {
				t.Errorf("run %d q%d was planned afresh, not from its template: %s", run, i, corpus[i])
			}
			fresh, err := sqlparser.ParseSelect(corpus[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := db.QueryStmtAt(fresh, snap)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := rowSet(got), rowSet(want); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Errorf("run %d q%d: template and fresh plan disagree\nquery: %s\nfresh:    %v\ntemplate: %v", run, i, corpus[i], w, g)
			}
			if ref, ok := reference(db, corpus[i]); ok {
				if g := rendered(got); fmt.Sprint(g) != fmt.Sprint(ref) {
					t.Errorf("run %d q%d diverges from the reference evaluator\nquery: %s\nref: %v\ngot: %v", run, i, corpus[i], ref, g)
				}
			}
		}
	}
}

// codedCorpus is every NULL-dropping TEXT conjunct shape over a
// dictionary-coded column — NULL rows, IN lists with a NULL member, LIKE,
// BETWEEN and < on TEXT, a conjunct that keeps Dict[0] over NULL slots
// (which carry code 0) — plus a conjunct that leaves fewer rows selected than
// the dictionary holds (the per-row branch), GROUP BY on a coded key with
// NULL keys, over a selection shorter than the dictionary, and a hash join
// and a semi-join whose probes are keyed on a coded column.
var codedCorpus = []string{
	`SELECT id FROM NullProbe WHERE name <= 'busy'`,
	`SELECT name, COUNT(*), SUM(id), MIN(score) FROM NullProbe GROUP BY name`,
	`SELECT name, COUNT(*) FROM NullProbe WHERE id > 4 GROUP BY name`,
	`SELECT value, COUNT(*), MIN(event_time), MAX(mach_id) FROM Activity GROUP BY value`,
	`SELECT mach_id, COUNT(*) FROM Activity WHERE value = 'idle' GROUP BY mach_id`,
	`SELECT mach_id, COUNT(*) FROM Activity WHERE mach_id IN ('Tao3', 'Tao4') GROUP BY mach_id`,
	`SELECT COUNT(*) FROM Activity WHERE mach_id NOT IN ('Tao1', 'Tao2') AND value = 'idle'`,
	`SELECT mach_id, event_time FROM Activity WHERE mach_id < 'Tao2' AND value <> 'busy'`,
	`SELECT mach_id, value FROM Activity WHERE mach_id BETWEEN 'Tao3' AND 'Tao5'`,
	`SELECT mach_id FROM Activity WHERE mach_id NOT BETWEEN 'Tao1' AND 'Tao8' AND value LIKE 'i%'`,
	`SELECT mach_id, event_time FROM Activity WHERE mach_id LIKE '%7' AND value NOT LIKE 'b%'`,
	`SELECT mach_id FROM Activity WHERE mach_id NOT IN ('Tao1', NULL)`,
	`SELECT mach_id, event_time FROM Activity WHERE mach_id IN ('Tao1', NULL) AND value = 'idle'`,
	`SELECT id, name FROM NullProbe WHERE name <> 'idle'`,
	`SELECT id FROM NullProbe WHERE name NOT IN ('busy', NULL)`,
	`SELECT id FROM NullProbe WHERE name IN ('busy', NULL)`,
	`SELECT id FROM NullProbe WHERE name >= 'down' OR name IS NULL`,
	`SELECT mach_id, value FROM Activity WHERE event_time = '2006-03-15 00:00:05' AND mach_id NOT IN ('Tao4')`,
	`SELECT DISTINCT value FROM Activity WHERE mach_id <> 'Tao9'`,
	`SELECT R.mach_id, A.value, A.event_time FROM Routing R, Activity A WHERE R.neighbor = A.mach_id AND R.mach_id IN ('Tao3', 'Tao40')`,
	`SELECT COUNT(*) FROM Routing R, Activity A WHERE R.neighbor = A.mach_id AND A.value = 'idle'`,
	`SELECT DISTINCT h.sid, h.recency FROM Heartbeat h, Activity A WHERE h.sid = A.mach_id AND A.value = 'idle' AND A.event_time > '2006-03-15 00:01:00'`,
}

// TestCodedSegmentsMatchTwin: tables sealed into dictionary-coded segments —
// by the sealer, decoded from the segment files of a checkpoint that OpenDir
// restored, and sealed on each shard of a 3-shard router whose gather merges
// the shards' answers — answer the coded corpus exactly as an unsealed twin,
// whose every vector is plain Str, and as the reference evaluator where it
// applies.
func TestCodedSegmentsMatchTwin(t *testing.T) {
	spec := workload.Spec{TotalRows: 8200, DataSources: 100}
	twin, err := workload.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := workload.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	addNullProbe(t, twin)
	addNullProbe(t, sealed)
	for _, name := range sealed.Catalog().Names() {
		tbl, err := sealed.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tbl.SetSealThreshold(300)
	}
	sealed.SealAll()
	restored := durableCopy(t, twin)
	act, err := restored.Catalog().Get("Activity")
	if err != nil {
		t.Fatal(err)
	}
	if segs := act.Snap().Segments; len(segs) == 0 || segs[0].Cols[0].Dict == nil {
		t.Fatalf("OpenDir restored no coded Activity segment (%d segments)", len(segs))
	}
	sharded, err := workload.BuildSharded(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for _, stmt := range workload.NullProbeStmts() {
		if _, err := sharded.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sharded.N(); i++ {
		for _, name := range sharded.Shard(i).Catalog().Names() {
			tbl, err := sharded.Shard(i).Catalog().Get(name)
			if err != nil {
				t.Fatal(err)
			}
			tbl.SetSealThreshold(300)
		}
	}
	sharded.SealAll()
	if probe, err := sharded.Shard(1).Catalog().Get("NullProbe"); err != nil || probe.Snap().Segments[0].Cols[1].Dict == nil {
		t.Fatalf("shard 1 sealed no coded NullProbe segment (%v)", err)
	}
	for qi, sql := range codedCorpus {
		res, err := twin.Query(sql)
		if err != nil {
			t.Fatalf("q%d [twin] %s: %v", qi, sql, err)
		}
		want := rowSet(res)
		for _, side := range []struct {
			name  string
			db    *engine.DB // the reference evaluator's catalog; nil for the router
			query func(string) (*engine.Result, error)
		}{{"sealed", sealed, sealed.Query}, {"restored", restored, restored.Query}, {"3 shards", nil, sharded.Query}} {
			res, err := side.query(sql)
			if err != nil {
				t.Fatalf("q%d [%s] %s: %v", qi, side.name, sql, err)
			}
			if got := rowSet(res); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("q%d [%s] diverges from the unsealed twin\nquery: %s\ntwin: %v\ngot:  %v", qi, side.name, sql, want, got)
			}
			if side.db == nil {
				continue
			}
			if ref, ok := reference(side.db, sql); ok {
				if got := rendered(res); fmt.Sprint(got) != fmt.Sprint(ref) {
					t.Errorf("q%d [%s] diverges from the reference evaluator\nquery: %s\nref: %v\ngot: %v", qi, side.name, sql, ref, got)
				}
			}
		}
	}
}

// durableCopy copies the visible rows of db's workload tables into a fresh
// directory database, checkpoints it — every whole segment's worth of a
// table's rows goes to its segment file — and returns it reopened by OpenDir.
func durableCopy(t *testing.T, db *engine.DB) *engine.DB {
	t.Helper()
	dir := t.TempDir()
	d, err := engine.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	for name, ddl := range map[string]string{
		"Activity":  `CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`,
		"Routing":   `CREATE TABLE Routing (mach_id TEXT, neighbor TEXT, event_time TIMESTAMP)`,
		"Heartbeat": `CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`,
		"NullProbe": workload.NullProbeStmts()[0],
	} {
		d.MustExec(ddl)
		src, err := db.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := d.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc := src.Schema.SourceColumn; sc >= 0 {
			if err := dst.Schema.SetSourceColumn(src.Schema.Columns[sc].Name); err != nil {
				t.Fatal(err)
			}
		}
		tx := d.Manager().Begin()
		for _, r := range src.Rows() {
			if snap.Visible(r) {
				if err := tx.InsertRow(dst, storage.NewRow(r.Values, 0)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	d.Catalog().BumpVersion()
	if err := d.CheckpointDir(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := engine.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restored.Close() })
	return restored
}
