package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"trac/internal/storage"
	"trac/internal/types"
)

func tsv(t *testing.T, s string) types.Value {
	t.Helper()
	ts, err := types.ParseTime(s)
	if err != nil {
		t.Fatal(err)
	}
	return types.NewTime(ts)
}

func TestSessionTempTableLifecycle(t *testing.T) {
	db := New()
	sess := db.NewSession()

	cols := []storage.Column{
		{Name: "sid", Kind: types.KindString},
		{Name: "recency", Kind: types.KindTime},
	}
	rows := [][]types.Value{
		{types.NewString("m1"), tsv(t, "2006-03-15 14:20:05")},
		{types.NewString("m3"), tsv(t, "2006-03-15 14:40:05")},
	}
	name, err := sess.CreateTempTable("sys_temp_a", cols, func() [][]types.Value { return rows })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(name, "sys_temp_a") {
		t.Errorf("name = %q", name)
	}
	// Queryable with plain SQL, as the paper's session transcript shows.
	res, err := db.Query(`SELECT sid, recency FROM ` + name + ` ORDER BY sid`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "m1" {
		t.Errorf("temp rows = %v", res.Rows)
	}

	if got := sess.TempTables(); len(got) != 1 || got[0] != name {
		t.Errorf("TempTables = %v", got)
	}

	// Persist survives session close.
	if err := sess.Persist(name, "saved_recency"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT * FROM ` + name); err == nil {
		t.Error("temp table should be dropped after Close")
	}
	res, err = db.Query(`SELECT COUNT(*) FROM saved_recency`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("persisted rows = %v", res.Rows)
	}
}

func TestTempTableNamesAreUnique(t *testing.T) {
	db := New()
	sess := db.NewSession()
	defer sess.Close()
	cols := []storage.Column{{Name: "x", Kind: types.KindInt}}
	a, err := sess.CreateTempTable("sys_temp_e", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.CreateTempTable("sys_temp_e", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Errorf("names collide: %q", a)
	}
}

func TestSessionCloseIsIdempotent(t *testing.T) {
	db := New()
	sess := db.NewSession()
	cols := []storage.Column{{Name: "x", Kind: types.KindInt}}
	if _, err := sess.CreateTempTable("sys_temp_a", cols, func() [][]types.Value { return [][]types.Value{{types.NewInt(1)}} }); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestTempTablesNeverAutoSeal: a report's sys_temp_* table is read once and
// dropped with its session, so even one larger than a segment stays a plain
// row tail — no column vectors, zone maps or source set are built for it.
func TestTempTablesNeverAutoSeal(t *testing.T) {
	db := New()
	sess := db.NewSession()
	defer sess.Close()
	rows := make([][]types.Value, storage.DefaultSegmentSize+500)
	for i := range rows {
		rows[i] = []types.Value{types.NewString(fmt.Sprintf("m%d", i))}
	}
	name, err := sess.CreateTempTable("sys_temp_a", []storage.Column{{Name: "sid", Kind: types.KindString}}, func() [][]types.Value { return rows })
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Catalog().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumSegments() != 0 {
		t.Errorf("temp table of %d rows sealed %d segments", len(rows), tbl.NumSegments())
	}
	res, err := db.Query(`SELECT COUNT(*) FROM ` + name + ` WHERE sid <> 'm7'`)
	if err != nil || res.Rows[0][0].Int() != int64(len(rows)-1) {
		t.Errorf("COUNT(*) = %v, %v; want %d", res, err, len(rows)-1)
	}
}

// TestTempTableFilledOnFirstRead: a temp table's rows are made by its filler
// when the table is first read — once, however many readers race to be
// first — and read back exactly as the filler made them; Persist of a table
// nobody read copies them, and Close of a table nobody read never runs its
// filler.
func TestTempTableFilledOnFirstRead(t *testing.T) {
	db := New()
	sess := db.NewSession()
	cols := []storage.Column{
		{Name: "sid", Kind: types.KindString},
		{Name: "recency", Kind: types.KindTime},
	}
	rows := [][]types.Value{
		{types.NewString("m1"), tsv(t, "2006-03-15 14:20:05")},
		{types.NewString("m3"), tsv(t, "2006-03-15 14:40:05")},
		{types.NewString("m4"), types.Null},
	}
	var fills atomic.Int32
	fill := func() [][]types.Value {
		fills.Add(1)
		return rows
	}
	var names [3]string
	for i := range names {
		var err error
		if names[i], err = sess.CreateTempTable("sys_temp_a", cols, fill); err != nil {
			t.Fatal(err)
		}
	}
	read, persisted := names[0], names[1]
	if n := fills.Load(); n != 0 {
		t.Fatalf("%d fills before any read", n)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < cap(errs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := db.Query(`SELECT sid, recency FROM ` + read + ` ORDER BY sid`)
			if err == nil && fmt.Sprint(res.Rows) != fmt.Sprint(rows) {
				err = fmt.Errorf("read %v, filler made %v", res.Rows, rows)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n := fills.Load(); n != 1 {
		t.Errorf("%d fills after concurrent first reads, want 1", n)
	}

	if err := sess.Persist(persisted, "kept_recency"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT sid, recency FROM kept_recency ORDER BY sid`)
	if err != nil || fmt.Sprint(res.Rows) != fmt.Sprint(rows) {
		t.Errorf("persisted unread table holds %v (%v), want %v", res, err, rows)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fills.Load(); n != 2 {
		t.Errorf("%d fills after Close, want 2: the unread table's filler ran", n)
	}
}

// TestPersistBumpsCatalogVersion: a persisted table is a new name every later
// statement can resolve, so Persist moves the catalog version and no plan
// cached against the catalog without it is reused.
func TestPersistBumpsCatalogVersion(t *testing.T) {
	db := New()
	sess := db.NewSession()
	defer sess.Close()
	cols := []storage.Column{{Name: "sid", Kind: types.KindString}}
	name, err := sess.CreateTempTable("sys_temp_a", cols, func() [][]types.Value {
		return [][]types.Value{{types.NewString("m1")}}
	})
	if err != nil {
		t.Fatal(err)
	}
	before := db.CatalogVersion()
	if err := sess.Persist(name, "kept"); err != nil {
		t.Fatal(err)
	}
	if after := db.CatalogVersion(); after <= before {
		t.Errorf("catalog version %d before Persist, %d after; want it moved", before, after)
	}
}
