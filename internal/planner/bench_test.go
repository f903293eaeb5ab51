package planner_test

import (
	"testing"

	"trac/internal/core/recgen"
	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/workload"
)

// BenchmarkPlanSelect prices what planning costs the statements of a
// wire_point refresh — the point form and the selective join form, each with
// its generated recency query — on the 200k-row, 20k-source dataset. Each
// operation plans the statement and drains the plan: "fresh" hands the
// planner a statement it has not seen (a plan-cache miss: full planning),
// "template" the same statement every time (a repeat: the kept tree is
// re-bound and re-opened).
func BenchmarkPlanSelect(b *testing.B) {
	db, err := workload.Build(workload.Spec{TotalRows: 200_000, DataSources: 20_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := db.Planner()
	for _, form := range []struct{ name, sql string }{
		{"point", `SELECT value, event_time FROM Activity WHERE mach_id = 'Tao17'`},
		{"join", `SELECT COUNT(*) FROM Routing R, Activity A WHERE R.mach_id IN ('Tao17', 'Tao18', 'Tao19') ` +
			`AND A.mach_id IN ('Tao17', 'Tao18', 'Tao19') AND R.neighbor = A.mach_id AND A.value = 'idle'`},
	} {
		user, err := sqlparser.ParseSelect(form.sql)
		if err != nil {
			b.Fatal(err)
		}
		gen, err := recgen.Generate(user, db.Catalog(), recgen.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, stmt := range []struct {
			name string
			sel  *sqlparser.SelectStmt
		}{{"user", user}, {"recency", gen.Stmt}} {
			for _, fresh := range []bool{true, false} {
				path := "template"
				if fresh {
					path = "fresh"
				}
				b.Run(form.name+"/"+stmt.name+"/"+path, func(b *testing.B) {
					run := func(sel *sqlparser.SelectStmt) {
						pl, err := p.PlanSelect(sel, db.Snapshot())
						if err != nil {
							b.Fatal(err)
						}
						if _, err := exec.Drain(pl.Root); err != nil {
							b.Fatal(err)
						}
					}
					// A statement's tree is kept from its second plan on.
					run(stmt.sel)
					run(stmt.sel)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sel := stmt.sel
						if fresh {
							cp := *sel
							sel = &cp
						}
						run(sel)
					}
				})
			}
		}
	}
}
