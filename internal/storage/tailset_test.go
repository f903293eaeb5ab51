package storage

import (
	"fmt"
	"testing"

	"trac/internal/types"
)

// TestWindowSourcesGate: a tail window's source set — its distinct non-NULL
// sources, sorted — stands for the window under the gate Settled keeps for a
// segment: every creator committed at or before the snapshot and no delete
// mark, re-checked after the table's next mark. It is withheld for an
// uncommitted or aborted creator, a delete mark, an older snapshot, a
// window over MaxZoneSources and rows that are not the heap's run at that
// position, and it is dropped once the region is sealed.
func TestWindowSourcesGate(t *testing.T) {
	build := func(t *testing.T, srcs func(i int) types.Value) *Table {
		tbl := NewTable("t", segSchema(t))
		tbl.SetSealThreshold(-1)
		for i := 0; i < 24; i++ {
			r := NewRow([]types.Value{types.NewInt(int64(i)), srcs(i), types.Null}, 1)
			r.XminSeq.Store(uint64(3 + i%2))
			tbl.Append(r)
		}
		return tbl
	}
	clustered := func(i int) types.Value {
		if i%6 == 5 {
			return types.Null
		}
		return types.NewString(fmt.Sprintf("m%d", 3-i/8)) // m3 ×8, m2 ×8, m1 ×8
	}
	window := func(tbl *Table) []*Row { return tbl.Snap().Tail()[8:16] }

	t.Run("settled", func(t *testing.T) {
		tbl := build(t, clustered)
		got, ok := tbl.WindowSources(8, window(tbl), 4)
		if !ok || fmt.Sprint(got) != "[m2]" {
			t.Fatalf("WindowSources = %v, %v; want [m2], true", got, ok)
		}
		got, ok = tbl.WindowSources(0, tbl.Snap().Tail()[:24], 9)
		if !ok || fmt.Sprint(got) != "[m1 m2 m3]" {
			t.Fatalf("whole tail: %v, %v; want [m1 m2 m3], true", got, ok)
		}
	})
	t.Run("snapshot older than the latest creator", func(t *testing.T) {
		tbl := build(t, clustered)
		if _, ok := tbl.WindowSources(8, window(tbl), 3); ok {
			t.Fatal("set used under a snapshot older than the window's latest creator")
		}
		if _, ok := tbl.WindowSources(8, window(tbl), 4); !ok {
			t.Fatal("set withheld from a snapshot at the latest creator")
		}
	})
	for _, creator := range []uint64{0, AbortedSeq} {
		t.Run(fmt.Sprintf("creator seq %d", creator), func(t *testing.T) {
			tbl := build(t, clustered)
			window(tbl)[3].XminSeq.Store(creator) // in flight (an own insert too) or aborted
			if _, ok := tbl.WindowSources(8, window(tbl), 9); ok {
				t.Fatal("set used over a version without a committed creator")
			}
			window(tbl)[3].XminSeq.Store(4) // it committed
			if got, ok := tbl.WindowSources(8, window(tbl), 9); !ok || fmt.Sprint(got) != "[m2]" {
				t.Fatalf("once committed: %v, %v; want [m2], true", got, ok)
			}
		})
	}
	t.Run("delete mark after the summary", func(t *testing.T) {
		tbl := build(t, clustered)
		if _, ok := tbl.WindowSources(8, window(tbl), 9); !ok {
			t.Fatal("set withheld before the delete")
		}
		window(tbl)[1].Xmax.Store(7)
		tbl.NoteDeleteMark()
		if _, ok := tbl.WindowSources(8, window(tbl), 9); ok {
			t.Fatal("set used over a delete-marked version")
		}
		if _, ok := tbl.WindowSources(16, tbl.Snap().Tail()[16:24], 9); !ok {
			t.Fatal("a mark in another window withheld this one's set")
		}
	})
	t.Run("over the cap", func(t *testing.T) {
		tbl := NewTable("t", segSchema(t))
		tbl.SetSealThreshold(-1)
		for i := 0; i < MaxZoneSources+1; i++ {
			r := segRow(int64(i), fmt.Sprintf("s%d", i), 0, false)
			r.XminSeq.Store(1)
			tbl.Append(r)
		}
		tail := tbl.Snap().Tail()
		if _, ok := tbl.WindowSources(0, tail, 9); ok {
			t.Fatal("set used for a window over MaxZoneSources")
		}
		if got, ok := tbl.WindowSources(1, tail[1:], 9); !ok || len(got) != MaxZoneSources {
			t.Fatalf("a window of MaxZoneSources sources: %d, %v", len(got), ok)
		}
	})
	t.Run("rows that are not the heap's run", func(t *testing.T) {
		tbl := build(t, clustered)
		tail := tbl.Snap().Tail()
		shifted := append([]*Row{tail[0]}, tail[9:16]...)
		if _, ok := tbl.WindowSources(8, shifted, 9); ok {
			t.Fatal("set used for rows that are not the heap's run at that position")
		}
		if _, ok := tbl.WindowSources(20, tail[20:24:24], 9); !ok {
			t.Fatal("set withheld from the heap's own run")
		}
		if _, ok := tbl.WindowSources(20, tail[16:24], 9); ok {
			t.Fatal("set used for a run past the heap's end")
		}
	})
	t.Run("sealing drops it", func(t *testing.T) {
		tbl := build(t, clustered)
		rows := window(tbl)
		if _, ok := tbl.WindowSources(8, rows, 9); !ok {
			t.Fatal("set withheld")
		}
		tbl.SetSealThreshold(16)
		tbl.Seal()
		if len(tbl.tails) != 0 {
			t.Errorf("%d window sets left after sealing every window", len(tbl.tails))
		}
		if _, ok := tbl.WindowSources(8, rows, 9); ok {
			t.Error("set used for a sealed window")
		}
	})
}
