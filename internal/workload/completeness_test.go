package workload_test

import (
	"sort"
	"testing"

	"trac/internal/core/bruteforce"
	"trac/internal/core/report"
	"trac/internal/sqlparser"
	"trac/internal/types"
	"trac/internal/workload"
)

// TestCorpusCompletenessGuard holds the paper's guarantee over the workload's
// own queries, on serial and parallel plans: the sources a report names include
// every source the exhaustive enumeration of Definitions 1 and 2 finds
// relevant (Corollaries 3/5), they are exactly those when the generator says
// Minimal (Theorems 3/4), and the Minimal flags themselves are the ones the
// generator has always given Q1–Q4. A faster recency plan that dropped a
// source, or that flipped a flag, fails here.
func TestCorpusCompletenessGuard(t *testing.T) {
	spec := workload.Spec{TotalRows: 240, DataSources: 12, Seed: 7}
	db, err := workload.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force enumerates potential tuples, so every regular column
	// needs a finite domain; the queries never read the timestamps.
	machines := make([]string, spec.DataSources)
	for i := range machines {
		machines[i] = workload.SourceName(i + 1)
	}
	when, err := types.FiniteDomain(types.NewTime(spec.Start))
	if err != nil {
		t.Fatal(err)
	}
	act, _ := db.Catalog().Get("Activity")
	rout, _ := db.Catalog().Get("Routing")
	act.Schema.Columns[2].Domain = when
	rout.Schema.Columns[1].Domain = types.FiniteStringDomain(machines...)
	rout.Schema.Columns[2].Domain = when
	db.Catalog().BumpVersion()
	// Leave a source with no idle row and one with no Routing row, so that
	// arms have sources they must not report and probes they must exhaust.
	db.MustExec(`UPDATE Activity SET value = 'busy' WHERE mach_id = 'Tao3'`)
	db.MustExec(`DELETE FROM Routing WHERE mach_id = 'Tao5'`)

	// Q3 and Q4 join Routing on a regular column (Jrm), which costs the
	// guarantee though not, on this data, a single false positive.
	minimal := map[string]bool{"Q1": true, "Q2": true, "Q3": false, "Q4": false}
	modes := []struct {
		name     string
		parallel bool
	}{{"serial", false}, {"parallel", true}}
	for _, name := range []string{"Q1", "Q2", "Q3", "Q4"} {
		sql, _ := workload.Query(name)
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := bruteforce.Relevant(sel, db.Catalog(), db.Snapshot(), bruteforce.Options{})
		if err != nil {
			t.Fatalf("%s: brute force: %v", name, err)
		}
		for _, m := range modes {
			pl := db.Planner()
			pl.ParallelThreshold, pl.MaxParallel = 0, 0
			if m.parallel {
				pl.ParallelThreshold, pl.MaxParallel = 8, 3
			}
			sess := db.NewSession()
			rep, err := report.Run(sess, sql, report.Config{})
			sess.Close()
			if err != nil {
				t.Fatalf("%s [%s]: %v", name, m.name, err)
			}
			if rep.Minimal != minimal[name] {
				t.Errorf("%s [%s]: Minimal = %v, want %v (%v)", name, m.name, rep.Minimal, minimal[name], rep.Reasons)
			}
			reported := map[string]bool{}
			var got []string
			for _, sr := range append(append([]report.SourceRecency(nil), rep.Normal...), rep.Exceptional...) {
				reported[sr.Sid] = true
				got = append(got, sr.Sid)
			}
			sort.Strings(got)
			for _, s := range exact {
				if !reported[s] {
					t.Errorf("%s [%s]: relevant source %s not reported\nexact    %v\nreported %v", name, m.name, s, exact, got)
				}
			}
			if rep.Minimal && len(got) != len(exact) {
				t.Errorf("%s [%s]: Minimal, yet reported %v for exact %v", name, m.name, got, exact)
			}
		}
	}
}
