package planner

import (
	"slices"
	"strings"
	"testing"

	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// TestExplainReportsSegmentPruning seals a clustered table and checks the
// vectorized-scan note: EXPLAIN reports how many sealed segments the scan
// predicate prunes via zone maps and how many unsealed tail rows remain.
func TestExplainReportsSegmentPruning(t *testing.T) {
	p, mgr := fixture(t)
	tbl, err := p.Catalog.Get("Activity")
	if err != nil {
		t.Fatal(err)
	}
	// The fixture loads 20 rows with event_time 1s..20s in order: sealing
	// in 5-row chunks yields 4 segments with disjoint time ranges.
	tbl.SetSealThreshold(5)
	if tbl.Seal(); tbl.NumSegments() != 4 {
		t.Fatalf("sealed %d segments, want 4", tbl.NumSegments())
	}

	// event_time < 6s admits only the first segment: 3 of 4 pruned.
	pl := plan(t, p, mgr, `SELECT value FROM Activity WHERE event_time < '1970-01-01 00:00:06'`)
	desc := pl.Describe()
	if !strings.Contains(desc, "segments 3/4 pruned, tail 0 rows") {
		t.Errorf("explain lacks pruning note:\n%s", desc)
	}
	rows, err := exec.Drain(pl.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Errorf("pruned plan returned %d rows, want 5", len(rows))
	}

	// An unprunable predicate still reports the segment layout, 0 pruned.
	pl = plan(t, p, mgr, `SELECT value FROM Activity WHERE value <> 'zzz'`)
	if desc := pl.Describe(); !strings.Contains(desc, "segments 0/4 pruned") {
		t.Errorf("explain lacks 0-pruned note:\n%s", desc)
	}

	// An index scan reads no segment by segment: its note never mentions
	// them.
	pl = plan(t, p, mgr, `SELECT value FROM Activity WHERE mach_id = 'm3'`)
	if desc := pl.Describe(); !strings.Contains(desc, "index scan") || strings.Contains(desc, "segments") {
		t.Errorf("index-scan explain:\n%s", desc)
	}
}

// TestValuesOfAnotherKind: a BIGINT column can hold a DOUBLE only through
// the direct storage API. A conjunct comparing it with DOUBLE literals must
// still find those rows on every access path: a tail scan, a sealed segment
// whose vector is not pure, and an index on the column.
func TestValuesOfAnotherKind(t *testing.T) {
	cat := storage.NewCatalog()
	mgr := txn.NewManager()
	s, err := storage.NewSchema([]storage.Column{{Name: "id", Kind: types.KindInt}, {Name: "n", Kind: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable("T", s)
	if err := cat.Create(tbl); err != nil {
		t.Fatal(err)
	}
	vals := []types.Value{types.NewInt(1), types.NewFloat(1.5), types.NewInt(2), types.NewFloat(1.7)}
	tx := mgr.Begin()
	for i, v := range vals {
		tx.InsertRow(tbl, storage.NewRow([]types.Value{types.NewInt(int64(i)), v}, 0))
	}
	tx.Commit()
	p := New(cat)
	layout := exec.NewLayout([]exec.Binding{{Name: "T", Table: tbl}})
	check := func(path string) {
		for _, where := range []string{"n = 1.5", "n IN (1.5, 2)", "n > 1.2", "n BETWEEN 1.6 AND 1.8", "n < 1.6"} {
			e, err := sqlparser.ParseExpr(where)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := exec.Compile(e, layout)
			if err != nil {
				t.Fatal(err)
			}
			var want []int64
			for i, v := range vals {
				if ok, err := exec.EvalPredicate(ev, []types.Value{types.NewInt(int64(i)), v}); err != nil {
					t.Fatal(err)
				} else if ok {
					want = append(want, int64(i))
				}
			}
			rows, err := exec.Drain(plan(t, p, mgr, `SELECT id FROM T WHERE `+where).Root)
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			for _, r := range rows {
				got = append(got, r[0].Int())
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s: WHERE %s = %v, row by row %v", path, where, got, want)
			}
		}
	}
	check("tail")
	if tbl.Seal(); tbl.NumSegments() != 1 {
		t.Fatalf("sealed %d segments, want 1", tbl.NumSegments())
	}
	check("sealed")
	if err := tbl.CreateIndex("n"); err != nil {
		t.Fatal(err)
	}
	check("index")
}
