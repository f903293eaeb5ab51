package planner

import (
	"fmt"
	"strings"
	"testing"

	"trac/internal/exec"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// gridFixture builds Routing (one row per source, every source its own
// neighbour) and an Activity of actRows rows written round-robin by the
// sources, half idle, sealed into segments of 1,000 rows with the last
// thousand left as an unsealed tail.
func gridFixture(t *testing.T, sources, actRows int) (*Planner, *txn.Manager) {
	t.Helper()
	cat := storage.NewCatalog()
	mgr := txn.NewManager()
	mk := func(name string, cols []storage.Column) *storage.Table {
		s, err := storage.NewSchema(cols)
		if err != nil {
			t.Fatal(err)
		}
		tbl := storage.NewTable(name, s)
		if err := cat.Create(tbl); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	rout := mk("Routing", []storage.Column{
		{Name: "mach_id", Kind: types.KindString},
		{Name: "neighbor", Kind: types.KindString},
	})
	act := mk("Activity", []storage.Column{
		{Name: "mach_id", Kind: types.KindString},
		{Name: "value", Kind: types.KindString},
		{Name: "event_time", Kind: types.KindTime},
	})
	act.SetSealThreshold(1000)
	tx := mgr.Begin()
	for i := 1; i <= sources; i++ {
		m := types.NewString(fmt.Sprintf("m%d", i))
		tx.InsertRow(rout, storage.NewRow([]types.Value{m, m}, 0))
	}
	for i := 0; i < actRows; i++ {
		val := "idle"
		if i%2 == 1 {
			val = "busy"
		}
		tx.InsertRow(act, storage.NewRow([]types.Value{
			types.NewString(fmt.Sprintf("m%d", 1+i%sources)), types.NewString(val), types.NewTimeNanos(int64(i) * 1e9),
		}, 0))
		if i == actRows-300 {
			act.SetSealThreshold(-1)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if act.NumSegments() == 0 || act.SealedRows() == actRows {
		t.Fatalf("fixture: %d segments, %d of %d rows sealed; want sealed segments and a tail",
			act.NumSegments(), act.SealedRows(), actRows)
	}
	return New(cat), mgr
}

// TestJoinBoxesOnlyWhatThePlanReturns pins what a hash join reads. The Q4
// form (a COUNT(*) over Routing ⋈ Activity) reads its probe side off the key
// vector alone however large Activity is; the same join returning A.*
// gathers every Activity column.
func TestJoinBoxesOnlyWhatThePlanReturns(t *testing.T) {
	const sources = 20
	for _, actRows := range []int{5_000, 50_000} {
		p, mgr := gridFixture(t, sources, actRows)
		pl := plan(t, p, mgr, `SELECT COUNT(*) FROM Routing R, Activity A
			WHERE R.mach_id NOT IN ('m1') AND R.neighbor = A.mach_id AND A.value = 'idle'`)
		rows, err := exec.Drain(pl.Root)
		if err != nil {
			t.Fatal(err)
		}
		// Even sources write only busy rows (sources is even), m1 is excluded.
		want := int64(actRows/sources) * (sources/2 - 1)
		if len(rows) != 1 || rows[0][0].Int() != want {
			t.Fatalf("%d Activity rows: COUNT(*) = %v, want %d", actRows, rows, want)
		}
		note := fmt.Sprintf("probe A (est %d) columnar [A.mach_id]", (actRows+2)/3)
		if desc := pl.Describe(); !strings.Contains(desc, "hash join: build so-far") || !strings.Contains(desc, note) {
			t.Errorf("%d Activity rows: plan notes lack %q:\n%s", actRows, note, desc)
		}
		if joins := hashJoins(pl); len(joins) != 1 || joins[0].Probed != actRows/2 {
			t.Errorf("%d Activity rows: join probes %v, want one of the %d idle ones", actRows, joins, actRows/2)
		}

		pl = plan(t, p, mgr, `SELECT A.* FROM Routing R, Activity A
			WHERE R.mach_id IN ('m1', 'm3') AND R.neighbor = A.mach_id AND A.value = 'idle'`)
		rows, err = exec.Drain(pl.Root)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2*actRows/sources || len(rows[0]) != 3 || rows[0][1].Str() != "idle" || rows[0][2].IsNull() {
			t.Fatalf("%d Activity rows: A.* returned %d rows like %v, want %d full idle rows",
				actRows, len(rows), rows[0], 2*actRows/sources)
		}
		note = "columnar [A.mach_id, A.value, A.event_time]"
		if desc := pl.Describe(); !strings.Contains(desc, note) {
			t.Errorf("%d Activity rows: plan notes lack %q:\n%s", actRows, note, desc)
		}
	}
}
