package storage

import (
	"sync"
	"testing"

	"trac/internal/types"
)

// morselFixture appends n rows, v = 0..n-1, under seal threshold threshold
// (see SetSealThreshold).
func morselFixture(t *testing.T, n, threshold int) *Table {
	t.Helper()
	schema, err := NewSchema([]Column{{Name: "v", Kind: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("t", schema)
	tbl.SetSealThreshold(threshold)
	for i := 0; i < n; i++ {
		tbl.Append(NewRow([]types.Value{types.NewInt(int64(i))}, 1))
	}
	return tbl
}

// TestMorselsPartitionExactly: a snapshot is one unit per sealed segment
// plus one per tail window, the last window partial.
func TestMorselsPartitionExactly(t *testing.T) {
	for _, tc := range []struct{ rows, threshold, want int }{
		{0, 0, 0},
		{1, 0, 1},
		{WindowSize, 0, 1},
		{WindowSize + 1, 0, 2},
		{3*WindowSize + 5, -1, 4},
		{DefaultSegmentSize + WindowSize + 1, 0, 3},
		{1000, 64, 16}, // 15 segments, 40 rows in one window
		{2*1500 + 1100, 1500, 4},
	} {
		tbl := morselFixture(t, tc.rows, tc.threshold)
		m := tbl.Morsels()
		if m.NumMorsels() != tc.want {
			t.Errorf("%d rows / threshold %d: NumMorsels = %d, want %d",
				tc.rows, tc.threshold, m.NumMorsels(), tc.want)
		}
		if m.Len() != tc.rows {
			t.Errorf("Len = %d, want %d", m.Len(), tc.rows)
		}
	}
}

func TestMorselsConcurrentClaimCoversEachRowOnce(t *testing.T) {
	const rows = 5000
	tbl := morselFixture(t, rows, -1) // five windows
	m := tbl.Morsels()

	const workers = 8
	var wg sync.WaitGroup
	counts := make([]map[int64]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen := make(map[int64]int)
			for {
				batch, ok := m.Claim()
				if !ok {
					break
				}
				for _, r := range batch.Rows {
					seen[r.Values[0].Int()]++
				}
			}
			counts[w] = seen
		}(w)
	}
	wg.Wait()

	total := make(map[int64]int, rows)
	for _, seen := range counts {
		for v, c := range seen {
			total[v] += c
		}
	}
	if len(total) != rows {
		t.Fatalf("claimed %d distinct rows, want %d", len(total), rows)
	}
	for v, c := range total {
		if c != 1 {
			t.Fatalf("row %d claimed %d times", v, c)
		}
	}
}

func TestMorselsSnapshotIgnoresLaterInserts(t *testing.T) {
	tbl := morselFixture(t, 100, 0)
	m := tbl.Morsels()
	// Rows inserted after partitioning are not part of this scan.
	tbl.Append(NewRow([]types.Value{types.NewInt(999)}, 1))
	n := 0
	for {
		batch, ok := m.Claim()
		if !ok {
			break
		}
		n += len(batch.Rows)
	}
	if n != 100 {
		t.Errorf("claimed %d rows, want the 100 present at partition time", n)
	}
}

// claimAll claims every unit of m from one goroutine, which gets them in
// heap order.
func claimAll(m *Morsels) []Morsel {
	var units []Morsel
	for u, ok := m.Claim(); ok; u, ok = m.Claim() {
		units = append(units, u)
	}
	return units
}

// TestWindowsCoverEveryRowInOrder: one claimer visits every row once, in
// heap order, a segment or a tail window at a time, each window holding at
// most WindowSize rows.
func TestWindowsCoverEveryRowInOrder(t *testing.T) {
	for _, tc := range []struct{ rows, threshold int }{
		{0, 0}, {1, 0}, {WindowSize, -1}, {2*WindowSize + 25, -1}, {1000, 64}, {5000, 1500}, {9000, 0},
	} {
		tbl := morselFixture(t, tc.rows, tc.threshold)
		m := tbl.Morsels()
		if m.Len() != tc.rows {
			t.Errorf("Len = %d, want %d", m.Len(), tc.rows)
		}
		seen := 0
		for _, u := range claimAll(m) {
			switch {
			case len(u.Rows) == 0:
				t.Fatal("empty unit")
			case u.Seg == nil:
				t.Fatalf("unit of %d rows without a segment", len(u.Rows))
			case u.Seg.Zones == nil && len(u.Rows) > WindowSize:
				t.Fatalf("tail window of %d rows", len(u.Rows))
			}
			for _, r := range u.Rows {
				if got := r.Values[0].Int(); got != int64(seen) {
					t.Fatalf("row %d out of order: got %d", seen, got)
				}
				seen++
			}
		}
		if seen != tc.rows {
			t.Errorf("units covered %d rows, want %d", seen, tc.rows)
		}
		if _, ok := m.Claim(); ok {
			t.Error("Claim after exhaustion returned a unit")
		}
	}
}

// TestWindowsSnapshotStable: units claimed after later appends and a seal
// that drops the snapshot's windows still hold exactly the snapshot's rows,
// each window's vectors unchanged.
func TestWindowsSnapshotStable(t *testing.T) {
	const rows = WindowSize + 5
	tbl := morselFixture(t, rows, -1)
	m := tbl.Morsels()
	tbl.Append(NewRow([]types.Value{types.NewInt(99)}, 1))
	tbl.Seal()
	units := claimAll(m)
	if len(units) != 2 {
		t.Fatalf("snapshot has %d units after the seal, want its 2 windows", len(units))
	}
	next := 0
	for _, u := range units {
		if u.Seg.Zones != nil {
			t.Fatal("a seal after the snapshot replaced its window by a sealed segment")
		}
		for k, r := range u.Rows {
			if got := r.Values[0].Int(); got != int64(next) || u.Seg.Cols[0].I64[k] != int64(next) {
				t.Fatalf("row %d: heap %d, window slot %d", next, got, u.Seg.Cols[0].I64[k])
			}
			next++
		}
	}
	if next != rows {
		t.Errorf("snapshot saw %d rows, want %d (appends after Morsels must not leak in)", next, rows)
	}
}
