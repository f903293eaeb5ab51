package report

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"trac/internal/engine"
	"trac/internal/exec"
	"trac/internal/storage"
	"trac/internal/types"
)

// sectionDB reproduces the §5.1 scenario: 11 sources m1..m11 where m2 is
// ~21 hours behind the others, Activity has m1/m3 idle.
func sectionDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New()
	for _, sql := range []string{
		`CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`,
		`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`,
		`CREATE INDEX idx_act ON Activity (mach_id)`,
		`INSERT INTO Activity VALUES
			('m1', 'idle', '2006-03-15 14:19:00'),
			('m2', 'busy', '2006-03-14 17:00:00'),
			('m3', 'idle', '2006-03-15 14:39:00')`,
		// m1..m11 heartbeats: m2 exceptional at 2006-03-14 17:23:00, the
		// rest within 2006-03-15 14:20:05 .. 14:40:05.
		`INSERT INTO Heartbeat VALUES
			('m1', '2006-03-15 14:20:05'),
			('m2', '2006-03-14 17:23:00'),
			('m3', '2006-03-15 14:40:05'),
			('m4', '2006-03-15 14:21:05'),
			('m5', '2006-03-15 14:22:05'),
			('m6', '2006-03-15 14:23:05'),
			('m7', '2006-03-15 14:24:05'),
			('m8', '2006-03-15 14:25:05'),
			('m9', '2006-03-15 14:26:05'),
			('m10', '2006-03-15 14:27:05'),
			('m11', '2006-03-15 14:28:05')`,
	} {
		db.MustExec(sql)
	}
	act, _ := db.Catalog().Get("Activity")
	act.Schema.SetSourceColumn("mach_id")
	act.Schema.Columns[1].Domain = types.FiniteStringDomain("busy", "idle")
	return db
}

func TestSection51Transcript(t *testing.T) {
	db := sectionDB(t)
	sess := db.NewSession()
	defer sess.Close()

	rep, err := Run(sess, `SELECT mach_id, value FROM Activity A WHERE value = 'idle'`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// User result: m1 and m3 idle.
	if len(rep.Result.Rows) != 2 {
		t.Fatalf("user rows = %v", rep.Result.Rows)
	}
	// The query has no source predicate: all 11 sources relevant; m2 is
	// exceptional (z-score over 3 given ten tight timestamps and one ~21h
	// behind).
	if len(rep.Exceptional) != 1 || rep.Exceptional[0].Sid != "m2" {
		t.Fatalf("exceptional = %+v", rep.Exceptional)
	}
	if len(rep.Normal) != 10 {
		t.Fatalf("normal = %d sources: %+v", len(rep.Normal), rep.Normal)
	}
	// Least and most recent normal sources per the paper.
	if rep.Least.Sid != "m1" || rep.Most.Sid != "m3" {
		t.Errorf("least/most = %s/%s, want m1/m3", rep.Least.Sid, rep.Most.Sid)
	}
	if rep.Bound != 20*time.Minute {
		t.Errorf("bound = %v, want 20m", rep.Bound)
	}
	// Temp tables exist and are queryable.
	res, err := db.Query(`SELECT COUNT(*) FROM ` + rep.NormalTable)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 {
		t.Errorf("normal temp rows = %v", res.Rows[0][0])
	}
	res, err = db.Query(`SELECT sid FROM ` + rep.ExceptionalTable)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "m2" {
		t.Errorf("exceptional temp rows = %v", res.Rows)
	}

	out := rep.Render()
	for _, want := range []string{
		"Exceptional relevant data sources and timestamps are in the temporary table: sys_temp_e",
		"The least recent data source: m1, 2006-03-15 14:20:05",
		"The most recent data source: m3, 2006-03-15 14:40:05",
		"Bound of inconsistency: 00:20:00",
		"''normal'' relevant data sources and timestamps are in the temporary table: sys_temp_a",
		"m1",
		"idle",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
}

func TestFocusedRestrictsSources(t *testing.T) {
	db := sectionDB(t)
	sess := db.NewSession()
	defer sess.Close()
	rep, err := Run(sess, `SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Minimal {
		t.Errorf("should be minimal: %v", rep.Reasons)
	}
	total := len(rep.Normal) + len(rep.Exceptional)
	if total != 2 {
		t.Fatalf("relevant = %d sources, want 2", total)
	}
}

func TestNaiveReportsAll(t *testing.T) {
	db := sectionDB(t)
	sess := db.NewSession()
	defer sess.Close()
	rep, err := Run(sess, `SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'`,
		Config{Method: Naive})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Minimal {
		t.Error("naive must not claim minimality")
	}
	if total := len(rep.Normal) + len(rep.Exceptional); total != 11 {
		t.Fatalf("naive relevant = %d, want 11", total)
	}
}

func TestEmptyReport(t *testing.T) {
	db := sectionDB(t)
	sess := db.NewSession()
	defer sess.Close()
	rep, err := Run(sess, `SELECT mach_id FROM Activity WHERE value = 'down'`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty {
		t.Fatal("expected Empty report")
	}
	if !strings.Contains(rep.Render(), "No data source is relevant") {
		t.Errorf("render = %s", rep.Render())
	}
}

func TestSkipKnobs(t *testing.T) {
	db := sectionDB(t)
	sess := db.NewSession()
	defer sess.Close()
	rep, err := Run(sess, `SELECT mach_id FROM Activity WHERE value = 'idle'`,
		Config{SkipStats: true, SkipTempTables: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Exceptional) != 0 {
		t.Error("SkipStats should disable outlier detection")
	}
	if len(rep.Normal) != 11 {
		t.Errorf("normal = %d, want all 11", len(rep.Normal))
	}
	if rep.NormalTable != "" || rep.ExceptionalTable != "" {
		t.Error("SkipTempTables should leave table names empty")
	}
	if len(sess.TempTables()) != 0 {
		t.Error("no temp tables should have been created")
	}
}

func TestSnapshotConsistencyUnderConcurrentLoad(t *testing.T) {
	// Requirement 1 end to end: while loaders update Activity and
	// Heartbeat, each report's user result and recency rows must come from
	// one snapshot — the recency of a source must be >= the newest event
	// we see from it, and the bound/min/max must be internally consistent.
	db := sectionDB(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		base := time.Date(2006, 3, 16, 0, 0, 0, 0, time.UTC)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Event + heartbeat advance must commit atomically (the Batch
			// API exists for exactly this): otherwise a snapshot between
			// the two statements legitimately sees the event with a stale
			// recency.
			ts := base.Add(time.Duration(i) * time.Second).Format(types.TimeLayout)
			b := db.BeginBatch()
			if _, err := b.Exec(`INSERT INTO Activity VALUES ('m1', 'idle', '` + ts + `')`); err != nil {
				t.Error(err)
				return
			}
			if _, err := b.Exec(`UPDATE Heartbeat SET recency = '` + ts + `' WHERE sid = 'm1'`); err != nil {
				t.Error(err)
				return
			}
			if err := b.Commit(); err != nil {
				t.Error(err)
				return
			}
			i++
		}
	}()

	for iter := 0; iter < 30; iter++ {
		sess := db.NewSession()
		rep, err := Run(sess, `SELECT mach_id, event_time FROM Activity WHERE mach_id = 'm1'`, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// Find m1's reported recency.
		var recency time.Time
		for _, sr := range append(rep.Normal, rep.Exceptional...) {
			if sr.Sid == "m1" {
				recency = sr.Recency
			}
		}
		if recency.IsZero() {
			t.Fatal("m1 missing from recency report")
		}
		// Every m1 event in the result must be <= recency OR belong to the
		// initial fixture (whose event_time predates the loader's base).
		for _, row := range rep.Result.Rows {
			et := row[1].Time()
			if et.After(recency) {
				t.Fatalf("snapshot inconsistency: event %v newer than reported recency %v", et, recency)
			}
		}
		sess.Close()
	}
	close(stop)
	wg.Wait()
}

func TestPreparedExecuteReuse(t *testing.T) {
	db := sectionDB(t)
	p, err := Prepare(db, `SELECT mach_id FROM Activity WHERE mach_id = 'm1'`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sess := db.NewSession()
		rep, err := p.Execute(sess)
		if err != nil {
			t.Fatal(err)
		}
		if total := len(rep.Normal) + len(rep.Exceptional); total != 1 {
			t.Fatalf("relevant = %d, want 1", total)
		}
		sess.Close()
	}
}

func TestFormatBound(t *testing.T) {
	cases := map[time.Duration]string{
		20 * time.Minute:               "00:20:00",
		0:                              "00:00:00",
		90*time.Minute + 5*time.Second: "01:30:05",
		25 * time.Hour:                 "25:00:00",
		-(10 * time.Minute):            "00:10:00",
	}
	for d, want := range cases {
		if got := formatBound(d); got != want {
			t.Errorf("formatBound(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestMethodString(t *testing.T) {
	if Focused.String() != "focused" || Naive.String() != "naive" {
		t.Error("method names wrong")
	}
}

// TestSummarizeOrdersPairsByRecencyThenSid holds Summarize's keyed sort and
// in-place permutation to a plain sort of the pairs, over inputs with many
// ties and in every starting order a few seeds produce, with and without the
// outlier split.
func TestSummarizeOrdersPairsByRecencyThenSid(t *testing.T) {
	base := time.Date(2006, 3, 15, 14, 0, 0, 0, time.UTC)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		if seed%2 == 1 { // the comparison sort small reports take
			n = rng.Intn(smallSort + 1)
		}
		pairs := make([]SourceRecency, n)
		for i := range pairs {
			pairs[i] = SourceRecency{Sid: fmt.Sprintf("m%d", rng.Intn(50)), Recency: base.Add(time.Duration(rng.Intn(7)) * time.Second)}
		}
		if n > 10 { // far outliers for the z-score rule, one before the epoch
			pairs[rng.Intn(n)].Recency = base.Add(-48 * time.Hour)
			pairs[rng.Intn(n)].Recency = time.Date(1965, 1, 1, 0, 0, 0, 0, time.UTC)
		}
		want := slices.Clone(pairs)
		slices.SortFunc(want, func(a, b SourceRecency) int {
			if c := a.Recency.Compare(b.Recency); c != 0 {
				return c
			}
			return strings.Compare(a.Sid, b.Sid)
		})
		for _, skip := range []bool{true, false} {
			rep := &Report{}
			Summarize(rep, slices.Clone(pairs), Config{SkipStats: skip})
			got := append(slices.Clone(rep.Exceptional), rep.Normal...)
			slices.SortStableFunc(got, func(a, b SourceRecency) int { return a.Recency.Compare(b.Recency) })
			if len(got) != len(want) {
				t.Fatalf("seed %d skip=%v: %d pairs out, %d in", seed, skip, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d skip=%v: pair %d = %v, want %v", seed, skip, i, got[i], want[i])
				}
			}
			if !slices.IsSortedFunc(rep.Normal, func(a, b SourceRecency) int { return a.Recency.Compare(b.Recency) }) {
				t.Fatalf("seed %d skip=%v: Normal is not in recency order", seed, skip)
			}
		}
	}
}

// TestTempTablesFilledOnFirstRead: a report registers its sys_temp_* tables
// without filling them; the first read fills each with exactly the report's
// pairs, and a source whose recency is NULL is in neither.
func TestTempTablesFilledOnFirstRead(t *testing.T) {
	db := sectionDB(t)
	db.MustExec(`INSERT INTO Heartbeat VALUES ('m12', NULL)`)
	sess := db.NewSession()
	defer sess.Close()
	rep, err := Run(sess, `SELECT mach_id, value FROM Activity A WHERE value = 'idle'`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		table string
		pairs []SourceRecency
	}{
		{rep.NormalTable, rep.Normal},
		{rep.ExceptionalTable, rep.Exceptional},
	} {
		tbl, err := db.Catalog().Get(tc.table)
		if err != nil {
			t.Fatal(err)
		}
		if !tbl.Spilled() {
			t.Errorf("%s was filled before anyone read it", tc.table)
		}
		res, err := db.Query(`SELECT sid, recency FROM ` + tc.table + ` ORDER BY recency, sid`)
		if err != nil {
			t.Fatal(err)
		}
		var got []SourceRecency
		for _, row := range res.Rows {
			got = append(got, SourceRecency{Sid: row[0].Str(), Recency: row[1].Time()})
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.pairs) {
			t.Errorf("%s holds %v, the report %v", tc.table, got, tc.pairs)
		}
	}
	if n := len(rep.Normal) + len(rep.Exceptional); n != 11 {
		t.Errorf("%d sources reported, want the 11 with a recency", n)
	}
}

// answerOf builds a recency query's answer over (sid, recency) rows — pure
// TEXT and TIMESTAMP vectors, or generic ones when generic is set — with the
// selection sel; a nil value is NULL.
func answerOf(rows [][2]*types.Value, sel []int, generic bool) *exec.Batch {
	b := &exec.Batch{Cols: []*storage.ColVec{
		{Kind: types.KindString, Pure: !generic},
		{Kind: types.KindTime, Pure: !generic},
	}, Sel: sel}
	for _, r := range rows {
		for c, cv := range b.Cols {
			v := types.Null
			if r[c] != nil {
				v = *r[c]
			}
			if generic {
				cv.Vals = append(cv.Vals, v)
				continue
			}
			cv.Nulls = append(cv.Nulls, v.IsNull())
			switch {
			case c == 0 && !v.IsNull():
				cv.Str = append(cv.Str, v.Str())
			case c == 0:
				cv.Str = append(cv.Str, "")
			case !v.IsNull():
				cv.I64 = append(cv.I64, v.TimeNanos())
			default:
				cv.I64 = append(cv.I64, 0)
			}
		}
	}
	return b
}

// TestSummaryCorePathsAgree: a report summarized straight off its recency
// query's answer (summarizeBatch) is field-identical to Summarize over the
// pairs read off the same answer in selection order, NULL rows skipped —
// over random answers with ties on the nanosecond and on the sid's first
// eight bytes, NULL sids and recencies, sizes on both sides of smallSort, a
// selection that is a shuffled subset, pure and generic vectors, both
// detectors and SkipStats.
func TestSummaryCorePathsAgree(t *testing.T) {
	base := time.Date(2006, 3, 15, 14, 0, 0, 0, time.UTC)
	sids := []string{"", "m1", "m2", "machine-", "machine-01", "machine-02", "machine-10", "Tao3", "Tao30"}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3 * smallSort)
		if seed%3 == 0 {
			n = rng.Intn(400)
		}
		rows := make([][2]*types.Value, n)
		for i := range rows {
			sid := types.NewString(sids[rng.Intn(len(sids))] + strings.Repeat("x", rng.Intn(2)))
			rec := types.NewTime(base.Add(time.Duration(rng.Intn(5)) * time.Second))
			if rng.Intn(20) == 0 {
				rec = types.NewTime(base.Add(-time.Duration(1+rng.Intn(3)) * 24 * time.Hour))
			}
			rows[i] = [2]*types.Value{&sid, &rec}
			if rng.Intn(15) == 0 {
				rows[i][rng.Intn(2)] = nil
			}
		}
		sel := rng.Perm(n)[:n-rng.Intn(n/4+1)]
		var pairs []SourceRecency
		for _, pos := range sel {
			if r := rows[pos]; r[0] != nil && r[1] != nil {
				pairs = append(pairs, SourceRecency{Sid: r[0].Str(), Recency: r[1].Time()})
			}
		}
		for _, cfg := range []Config{{}, {Detector: DetectorMAD}, {ZThreshold: 1.5}, {SkipStats: true}} {
			want := &Report{}
			Summarize(want, slices.Clone(pairs), cfg)
			for _, generic := range []bool{false, true} {
				got := &Report{}
				summarizeBatch(got, answerOf(rows, slices.Clone(sel), generic), cfg)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %d rows, cfg %+v, generic %v:\nbatch: %+v\npairs: %+v", seed, n, cfg, generic, got, want)
				}
			}
		}
	}
	got, want := &Report{}, &Report{}
	summarizeBatch(got, nil, Config{})
	Summarize(want, nil, Config{})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("no answer: batch %+v, pairs %+v", got, want)
	}
}

// BenchmarkSummarize classifies and orders the 5,000 (source, recency) pairs
// of a wide report: 600 distinct timestamps, so ties are common, and 25
// sources a day behind. "pairs" starts from the pairs (Summarize); "batch"
// starts from the recency query's answer, as a report does (summarizeBatch).
func BenchmarkSummarize(b *testing.B) {
	base := time.Date(2006, 3, 15, 14, 0, 0, 0, time.UTC)
	in := make([]SourceRecency, 5000)
	for i := range in {
		in[i] = SourceRecency{Sid: fmt.Sprintf("Tao%d", i+1), Recency: base.Add(time.Duration(i%600) * time.Second)}
		if i >= len(in)-25 {
			in[i].Recency = base.Add(-24 * time.Hour)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	rows := make([][2]*types.Value, len(in))
	sel := make([]int, len(in))
	for i, sr := range in {
		sid, rec := types.NewString(sr.Sid), types.NewTime(sr.Recency)
		rows[i], sel[i] = [2]*types.Value{&sid, &rec}, i
	}
	answer := answerOf(rows, sel, false)
	b.Run("pairs", func(b *testing.B) {
		pairs := make([]SourceRecency, len(in))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(pairs, in)
			rep := &Report{}
			Summarize(rep, pairs, Config{})
			if len(rep.Exceptional) != 25 {
				b.Fatalf("%d exceptional sources, want 25", len(rep.Exceptional))
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep := &Report{}
			summarizeBatch(rep, answer, Config{})
			if len(rep.Exceptional) != 25 {
				b.Fatalf("%d exceptional sources, want 25", len(rep.Exceptional))
			}
		}
	})
}
