package exec

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// windowSchema has a column of every kind, the TEXT one the source column,
// and a BIGINT column the storage API writes TEXT values into now and then.
func windowSchema(t testing.TB) *storage.Schema {
	t.Helper()
	schema, err := storage.NewSchema([]storage.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "src", Kind: types.KindString},
		{Name: "score", Kind: types.KindFloat},
		{Name: "at", Kind: types.KindTime},
		{Name: "ok", Kind: types.KindBool},
		{Name: "mixed", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.SetSourceColumn("src"); err != nil {
		t.Fatal(err)
	}
	return schema
}

// windowValues is row i of the fixtures: every column NULL now and then,
// sources in runs of 37 rows over m0..m19, and a TEXT value in the BIGINT
// column mixed every 499 rows.
func windowValues(i int) []types.Value {
	v := []types.Value{
		types.NewInt(int64(i)),
		types.NewString(fmt.Sprintf("m%d", (i/37)%20)),
		types.NewFloat(float64(i%100) / 10),
		types.NewTimeNanos(int64(i) * 1e9),
		types.NewBool(i%3 == 0),
		types.NewInt(int64(i % 50)),
	}
	for c, every := range []int{0, 11, 5, 13, 17, 7} {
		if every > 0 && i%every == 0 {
			v[c] = types.Null
		}
	}
	if i%499 == 7 {
		v[5] = types.NewString("x")
	}
	return v
}

// windowFixture is a table of the window schema, its transaction manager,
// and a transaction left in flight over some of its rows.
type windowFixture struct {
	tbl      *storage.Table
	m        *txn.Manager
	inflight *txn.Txn
}

// fill inserts rows base..base+n-1 in transactions of 600 rows, the third
// of which aborts, then deletes every tenth of them in one committed
// transaction.
func (f *windowFixture) fill(t *testing.T, base, n int) {
	t.Helper()
	var rows []*storage.Row
	for lo, k := base, 0; lo < base+n; lo, k = lo+600, k+1 {
		tx := f.m.Begin()
		for i := lo; i < min(lo+600, base+n); i++ {
			r := storage.NewRow(windowValues(i), 0)
			if err := tx.InsertRow(f.tbl, r); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, r)
		}
		end := tx.Commit
		if k == 2 {
			end = tx.Abort
		}
		if err := end(); err != nil {
			t.Fatal(err)
		}
	}
	tx := f.m.Begin()
	for i := 0; i < len(rows); i += 10 {
		if rows[i].XminSeq.Load() != storage.AbortedSeq {
			if err := tx.Delete(f.tbl, rows[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// windowFixtures builds the tables TestTailWindowsMatchRows reads: every
// seal threshold it names, an aged tail sealed early, a table restored from
// a segment file with rows appended before it is first read (the path a
// recovered table takes), and a spilled temp table. Each ends with 50 rows
// of a transaction still in flight.
func windowFixtures(t *testing.T) map[string]*windowFixture {
	t.Helper()
	const rows = 5000
	out := map[string]*windowFixture{}
	add := func(name string, tbl *storage.Table, fill func(f *windowFixture)) {
		f := &windowFixture{tbl: tbl, m: txn.NewManager()}
		fill(f)
		f.inflight = f.m.Begin()
		for i := 0; i < 50; i++ {
			if err := f.inflight.InsertRow(f.tbl, storage.NewRow(windowValues(90_000+i), 0)); err != nil {
				t.Fatal(err)
			}
		}
		out[name] = f
	}
	for _, threshold := range []int{-1, 100, 1000, 1024, 1500, 4096} {
		tbl := storage.NewTable("W", windowSchema(t))
		tbl.SetSealThreshold(threshold)
		add(fmt.Sprintf("threshold %d", threshold), tbl, func(f *windowFixture) { f.fill(t, 0, rows) })
	}

	aged := storage.NewTable("W", windowSchema(t))
	add("aged tail", aged, func(f *windowFixture) {
		f.fill(t, 0, 300)
		aged.NoteDead(290) // the next append finds four versions per live row
		f.fill(t, 300, rows-300)
	})

	// A checkpoint's segment file, read back, under rows appended since.
	src := storage.NewTable("W", windowSchema(t))
	srcFix := &windowFixture{tbl: src, m: txn.NewManager()}
	srcFix.fill(t, 0, 4500)
	var live []*storage.Row
	for _, r := range src.Rows() {
		if srcFix.m.ReadSnapshot().Visible(r) {
			live = append(live, r)
		}
	}
	var file bytes.Buffer
	if err := storage.WriteSegmentFile(&file, src.Schema, storage.CompactSegments(live, src.Schema, 0)); err != nil {
		t.Fatal(err)
	}
	segs, err := storage.ReadSegmentFile(bytes.NewReader(file.Bytes()), int64(file.Len()), src.Schema)
	if err != nil {
		t.Fatal(err)
	}
	restored := storage.NewTable("W", windowSchema(t))
	restored.SetSpill(func() ([]*storage.Segment, []*storage.Row, error) { return segs, nil, nil }, nil)
	add("restored", restored, func(f *windowFixture) { f.fill(t, 4500, 2600) })

	temp := storage.NewTable("W", windowSchema(t))
	temp.SetSealThreshold(-1)
	tuples := make([][]types.Value, 2500)
	for i := range tuples {
		tuples[i] = windowValues(i)
	}
	temp.SetSpill(func() ([]*storage.Segment, []*storage.Row, error) {
		return nil, storage.BootstrapRows(tuples), nil
	}, nil)
	add("temp table", temp, func(*windowFixture) {})
	return out
}

// multiset renders rows as sorted row keys, for order-free comparison.
func multiset(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = RowKey(r)
	}
	sort.Strings(out)
	return out
}

// TestTailWindowsMatchRows: over tables whose tails are held in windows —
// every seal threshold, an aged tail sealed early, a restored table and a
// spilled temp table, each with NULLs, a column of mixed kinds, aborted,
// deleted and in-flight versions — every reader returns what the row-by-row
// reference returns: the serial and the parallel scan, StatAggScan, an
// IndexScan and a semi-join probe, under a reader's snapshot and under the
// in-flight writer's own.
func TestTailWindowsMatchRows(t *testing.T) {
	for name, f := range windowFixtures(t) {
		t.Run(name, func(t *testing.T) {
			if heap := f.tbl.Snap(); len(heap.AppendTail(nil)) == 0 {
				t.Fatal("fixture has no tail")
			}
			for _, snap := range []txn.Snapshot{f.m.ReadSnapshot(), f.inflight.Snapshot()} {
				checkReaders(t, f.tbl, snap)
			}
		})
	}
}

// checkReaders holds every reader over tbl to the reference under snap.
func checkReaders(t *testing.T, tbl *storage.Table, snap txn.Snapshot) {
	t.Helper()
	layout := layoutFor(tbl, "w")
	for _, pred := range []string{"", "score >= 5 AND ok", "src = 'm3' OR id < 700", "at IS NULL"} {
		want := fmt.Sprint(multiset(visibleRows(t, tbl, snap, pred)))
		var kernel Kernel
		var segf *SegmentFilter
		if pred != "" {
			kernel = kernelOn(t, layout, pred)
			e, err := sqlparser.ParseExpr(pred)
			if err != nil {
				t.Fatal(err)
			}
			if segf, err = CompileSegmentFilter(e, layout, 0, tbl.Schema.NumColumns()); err != nil {
				t.Fatal(err)
			}
		}
		for rname, op := range map[string]BatchOperator{
			"serial":   &BatchScan{Table: tbl, Snap: snap, Kernel: kernel, SegFilter: segf},
			"parallel": &ParallelScan{Table: tbl, Snap: snap, Kernel: kernel, SegFilter: segf, Workers: 4},
		} {
			if got := fmt.Sprint(multiset(drainBatches(t, op))); got != want {
				t.Errorf("%s scan, %q: differs from the reference", rname, pred)
			}
		}

		specs := []AggSpec{
			{Func: sqlparser.FuncCount, Star: true},
			{Func: sqlparser.FuncCount, Arg: colAt(5)},
			{Func: sqlparser.FuncSum, Arg: colAt(0)},
			{Func: sqlparser.FuncAvg, Arg: colAt(0)},
			{Func: sqlparser.FuncMin, Arg: colAt(1)},
			{Func: sqlparser.FuncMax, Arg: colAt(3)},
			{Func: sqlparser.FuncMax, Arg: colAt(2)},
		}
		ref, err := Drain(&BatchGroupAggregate{Src: tuples(visibleRows(t, tbl, snap, pred)), Specs: specs})
		if err != nil {
			t.Fatal(err)
		}
		agg := &StatAggScan{Table: tbl, Snap: snap, Specs: specs, ArgCols: []int{-1, 5, 0, 0, 1, 3, 2},
			Kernel: kernel, SegFilter: segf, Workers: 3}
		if got := drainBatches(t, agg); fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Errorf("StatAggScan, %q: %v, reference %v", pred, got, ref)
		}
	}

	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	is := &IndexScan{Table: tbl, Index: tbl.Index(0), Snap: snap, Lo: storage.Incl(types.NewInt(1800)), Hi: storage.Unbounded}
	if got, want := multiset(drainBatches(t, is)), multiset(visibleRows(t, tbl, snap, "id >= 1800")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("IndexScan: %d rows, reference %d", len(got), len(want))
	}

	// A probe keyed on the source column: with no predicate it may take full
	// windows and segments from their source sets, with one it reads them.
	var anchors []string
	for i := 0; i < 22; i++ {
		anchors = append(anchors, fmt.Sprintf("m%d", i))
	}
	for _, pred := range []string{"", "ok"} {
		present := map[string]bool{}
		for _, r := range visibleRows(t, tbl, snap, pred) {
			if !r[1].IsNull() {
				present[r[1].Str()] = true
			}
		}
		var want []string
		for _, a := range anchors {
			if present[a] {
				want = append(want, a)
			}
		}
		var kernel Kernel
		if pred != "" {
			kernel = kernelOn(t, layoutFor(tbl, "w"), pred)
		}
		for rname, src := range map[string]BatchOperator{
			"serial":   &BatchScan{Table: tbl, Snap: snap, Kernel: kernel},
			"parallel": &ParallelScan{Table: tbl, Snap: snap, Kernel: kernel, Workers: 4},
		} {
			probe := &SemiProbe{
				Src:        src,
				AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(1)},
				AnchorCols: []int{0}, ProbeCols: []int{1},
				Width: tbl.Schema.NumColumns(),
			}
			j := &SemiJoin{Anchor: tuples(strRows(anchors...)), Arms: []SemiArm{{Probes: []*SemiProbe{probe}}}}
			if got := drainSemi(t, j); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s semi-join probe, %q: %v, reference %v", rname, pred, got, want)
			}
		}
	}
}

// TestHashJoinKeyMapSizedBySelection: a build side that views a whole
// segment through a selective filter files a handful of positions, and its
// key map is sized by them, not by the segment's length.
func TestHashJoinKeyMapSizedBySelection(t *testing.T) {
	tbl := storage.NewTable("W", windowSchema(t))
	m := txn.NewManager()
	tx := m.Begin()
	for i := 0; i < storage.DefaultSegmentSize; i++ {
		if err := tx.InsertRow(tbl, storage.NewRow(windowValues(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := m.ReadSnapshot()
	build := &BatchScan{Table: tbl, Snap: snap, Kernel: kernelOn(t, layoutFor(tbl, "w"), "id < 40")}
	j := &BatchHashJoin{
		Build: build, Probe: &BatchScan{Table: tbl, Snap: snap},
		BuildKeys: []Evaluator{col(1)}, ProbeKeys: []Evaluator{col(1)},
		BuildCols: []int{1}, ProbeCols: []int{1},
	}
	least := ^uint64(0)
	for run := 0; run < 5; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := j.index(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if j.build == nil || j.build.n != storage.DefaultSegmentSize || j.build.Len() != 40 {
			t.Fatalf("build side is not one viewed segment narrowed to 40 rows")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		PutBatch(j.build)
		j.build = nil
	}
	// The chain links take 4 bytes a vector position (16 KiB); a map sized
	// for the 4,096 positions would take several times that again.
	if least > 48<<10 {
		t.Errorf("indexing 40 selected positions allocated %d bytes", least)
	}
}

// TestTailWindowsRace runs scans and recency probes while appends, deletes,
// seals and kind demotions go on. Every scan must return exactly the rows
// its snapshot sees. Each round takes a heap snapshot, has the writer append
// a value that demotes the snapshot's partial window, and reads the
// snapshot's windows before anything that orders it after the writer: under
// -race, a demotion that wrote to a window a snapshot holds is reported.
// Each round then scans the previous round's heap snapshot again under its
// own, later transaction snapshot: a window that snapshot saw partial has
// filled since, and this round's scans and probe have recorded its live
// set, settled mark and source set, none of which may stand for the rows
// the older snapshot holds — it must read them, and only them. `make check`
// runs it ten times over.
func TestTailWindowsRace(t *testing.T) {
	tbl := storage.NewTable("W", windowSchema(t))
	tbl.SetSealThreshold(1500) // seals that end inside a window
	m := txn.NewManager()
	demote := make(chan struct{}, 1)
	stop, done := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 12_000; i += 7 {
			vals := make([][]types.Value, 0, 8)
			for k := i; k < i+7; k++ {
				v := windowValues(k)
				if !v[5].IsNull() {
					v[5] = types.NewInt(7) // only the rounds demote
				}
				vals = append(vals, v)
			}
			select {
			case <-stop:
				return
			case <-demote:
				v := windowValues(i)
				v[5] = types.NewString("x")
				vals = append(vals, v)
			default:
			}
			tx := m.Begin()
			rows := make([]*storage.Row, len(vals))
			for k, v := range vals {
				rows[k] = storage.NewRow(v, 0)
				if err := tx.InsertRow(tbl, rows[k]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
			if i%3 != 0 {
				// Over a quarter of the versions deleted for good: scans
				// record live sets on the windows once they fill.
				tx := m.Begin()
				for _, r := range rows[:4] {
					if err := tx.Delete(tbl, r); err != nil {
						t.Error(err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
			if i%2100 == 0 {
				tbl.Seal()
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	anchors := strRows("m0", "m7", "m19", "zz")
	var prev *storage.HeapSnap
	for iter := 0; ; iter++ {
		select {
		case <-done:
			if iter >= 5 {
				return
			}
		default:
		}
		snap := m.ReadSnapshot()
		heap := tbl.Snap()
		select {
		case demote <- struct{}{}:
		default:
		}
		for _, unit := range heap.AppendTail(nil) {
			for i, r := range unit.Rows {
				for ci, v := range r.Values {
					if got := unit.Seg.Cols[ci].Value(i); got.Kind() != v.Kind() || !types.Equal(got, v) {
						t.Fatalf("iter %d: window slot %d column %d holds %v, the row %v", iter, i, ci, got, v)
					}
				}
			}
		}
		fromHeap, want := scanHeap(t, tbl, heap, snap)
		for name, got := range map[string][][]types.Value{
			"snapshot units": fromHeap,
			"serial":         drainBatches(t, &BatchScan{Table: tbl, Snap: snap}),
			"parallel":       drainBatches(t, &ParallelScan{Table: tbl, Snap: snap, Workers: 3}),
		} {
			if fmt.Sprint(multiset(got)) != fmt.Sprint(want) {
				t.Fatalf("iter %d: %s scan returned %d rows, the snapshot sees %d", iter, name, len(got), len(want))
			}
		}
		probe := &SemiProbe{
			Src:        &ParallelScan{Table: tbl, Snap: snap, Workers: 2},
			AnchorKeys: []Evaluator{col(0)}, ProbeKeys: []Evaluator{col(1)},
			AnchorCols: []int{0}, ProbeCols: []int{1},
			Width: tbl.Schema.NumColumns(),
		}
		j := &SemiJoin{Anchor: tuples(anchors), Arms: []SemiArm{{Probes: []*SemiProbe{probe}}}}
		if got := drainSemi(t, j); len(want) > 37*20 && fmt.Sprint(got) != "[m0 m7 m19]" {
			t.Fatalf("iter %d: probe marked %v", iter, got)
		}
		if prev != nil {
			checkOlderHeap(t, tbl, prev, snap)
		}
		prev = heap
	}
}

// scanHeap scans every unit of heap under snap through one unitScan. It
// returns the rows the scan emitted and, sorted, the keys of the rows of
// heap that snap sees.
func scanHeap(t *testing.T, tbl *storage.Table, heap *storage.HeapSnap, snap txn.Snapshot) (got [][]types.Value, want []string) {
	t.Helper()
	for _, r := range heap.Rows {
		if snap.Visible(r) {
			want = append(want, RowKey(r.Values))
		}
	}
	sort.Strings(want)
	var u unitScan
	u.reset(tbl, snap, nil, nil, 0, 0, nil)
	for _, unit := range heap.AppendTail(append([]storage.Morsel(nil), segmentUnits(heap)...)) {
		b, err := u.batch(unit)
		if err != nil {
			t.Fatal(err)
		}
		if b != nil {
			got = b.AppendRows(got)
			PutBatch(b)
		}
	}
	return got, want
}

// checkOlderHeap scans heap, a heap snapshot taken before snap, under snap:
// a window heap saw partial must offer it no live set, settled mark or
// source set, whatever was recorded on the window since it filled, and the
// scan must return exactly heap's rows that snap sees.
func checkOlderHeap(t *testing.T, tbl *storage.Table, heap *storage.HeapSnap, snap txn.Snapshot) {
	t.Helper()
	for _, unit := range heap.AppendTail(nil) {
		if seg := unit.Seg; len(unit.Rows) < storage.WindowSize {
			if _, settled := tbl.Settled(seg, unit.Rows); settled || seg.Live(snap.Seq, unit.Rows) != nil || seg.Sources(1, unit.Rows) != nil {
				t.Fatalf("a window seen with %d rows offers a set of a later fill", len(unit.Rows))
			}
		}
	}
	if got, want := scanHeap(t, tbl, heap, snap); fmt.Sprint(multiset(got)) != fmt.Sprint(want) {
		t.Fatalf("older heap snapshot: scan returned %d rows, it holds %d the later snapshot sees", len(got), len(want))
	}
}

// segmentUnits returns a snapshot's sealed segments as scan units.
func segmentUnits(heap *storage.HeapSnap) []storage.Morsel {
	units := make([]storage.Morsel, len(heap.Segments))
	for i, seg := range heap.Segments {
		units[i] = storage.Morsel{Seg: seg, Rows: seg.Rows}
	}
	return units
}
