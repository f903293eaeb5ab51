package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"trac/internal/types"
)

func TestBTreeInsertLookup(t *testing.T) {
	tr := NewBTree()
	rows := make(map[int64]*Row)
	for i := int64(0); i < 1000; i++ {
		r := NewRow([]types.Value{types.NewInt(i)}, 1)
		rows[i] = r
		tr.Insert(types.NewInt(i), r)
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := int64(0); i < 1000; i++ {
		got := tr.Lookup(types.NewInt(i))
		if len(got) != 1 || got[0] != rows[i] {
			t.Fatalf("Lookup(%d) = %v", i, got)
		}
	}
	if got := tr.Lookup(types.NewInt(5000)); got != nil {
		t.Fatalf("Lookup(absent) = %v", got)
	}
}

func TestBTreeDuplicates(t *testing.T) {
	tr := NewBTree()
	key := types.NewString("m1")
	var want []*Row
	for i := 0; i < 50; i++ {
		r := NewRow([]types.Value{types.NewInt(int64(i))}, 1)
		want = append(want, r)
		tr.Insert(key, r)
	}
	got := tr.Lookup(key)
	if len(got) != 50 {
		t.Fatalf("got %d rows", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestBTreeRandomOrderKeysSorted(t *testing.T) {
	tr := NewBTree()
	rng := rand.New(rand.NewSource(7))
	seen := make(map[int64]bool)
	for i := 0; i < 5000; i++ {
		k := rng.Int63n(2000)
		seen[k] = true
		tr.Insert(types.NewInt(k), NewRow(nil, 1))
	}
	keys := tr.Keys()
	if len(keys) != len(seen) {
		t.Fatalf("distinct keys = %d, want %d", len(keys), len(seen))
	}
	for i := 1; i < len(keys); i++ {
		if !types.Less(keys[i-1], keys[i]) {
			t.Fatalf("keys not strictly ascending at %d: %v %v", i, keys[i-1], keys[i])
		}
	}
}

func TestBTreeScanRange(t *testing.T) {
	tr := NewBTree()
	for i := int64(0); i < 100; i++ {
		tr.Insert(types.NewInt(i), NewRow([]types.Value{types.NewInt(i)}, 1))
	}
	collect := func(lo, hi Bound) []int64 {
		var out []int64
		tr.Scan(lo, hi, func(k types.Value, rows []*Row) bool {
			out = append(out, k.Int())
			return true
		})
		return out
	}
	got := collect(Incl(types.NewInt(10)), Incl(types.NewInt(15)))
	want := []int64{10, 11, 12, 13, 14, 15}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("inclusive scan = %v, want %v", got, want)
	}
	got = collect(Excl(types.NewInt(10)), Excl(types.NewInt(15)))
	want = []int64{11, 12, 13, 14}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("exclusive scan = %v, want %v", got, want)
	}
	if n := len(collect(Unbounded, Unbounded)); n != 100 {
		t.Errorf("full scan = %d keys", n)
	}
	got = collect(Unbounded, Incl(types.NewInt(2)))
	want = []int64{0, 1, 2}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("lo-unbounded scan = %v", got)
	}
	got = collect(Incl(types.NewInt(97)), Unbounded)
	want = []int64{97, 98, 99}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("hi-unbounded scan = %v", got)
	}
}

func TestBTreeScanEarlyStop(t *testing.T) {
	tr := NewBTree()
	for i := int64(0); i < 100; i++ {
		tr.Insert(types.NewInt(i), NewRow(nil, 1))
	}
	count := 0
	tr.Scan(Unbounded, Unbounded, func(types.Value, []*Row) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Errorf("visited %d keys, want 7", count)
	}
}

func TestBTreeStringKeys(t *testing.T) {
	tr := NewBTree()
	names := []string{"Tao1", "Tao10", "Tao100", "Tao2", "m1", "m2"}
	for _, n := range names {
		tr.Insert(types.NewString(n), NewRow(nil, 1))
	}
	keys := tr.Keys()
	got := make([]string, len(keys))
	for i, k := range keys {
		got[i] = k.Str()
	}
	want := append([]string(nil), names...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("keys = %v, want %v", got, want)
	}
}

// Property: for random multisets, the tree agrees with a reference map on
// per-key row counts, and a full scan visits every key exactly once in order.
func TestBTreePropertyMatchesReference(t *testing.T) {
	f := func(keys []int16) bool {
		tr := NewBTree()
		ref := make(map[int64]int)
		for _, k := range keys {
			kk := int64(k % 100)
			ref[kk]++
			tr.Insert(types.NewInt(kk), NewRow(nil, 1))
		}
		for k, n := range ref {
			if got := len(tr.Lookup(types.NewInt(k))); got != n {
				return false
			}
		}
		seen := 0
		prev := types.Null
		okOrder := true
		tr.Scan(Unbounded, Unbounded, func(k types.Value, rows []*Row) bool {
			if !prev.IsNull() && !types.Less(prev, k) {
				okOrder = false
			}
			prev = k
			seen++
			return true
		})
		return okOrder && seen == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBTreeConcurrentInsertLookup(t *testing.T) {
	tr := NewBTree()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 20000; i++ {
			tr.Insert(types.NewInt(i%500), NewRow(nil, 1))
		}
	}()
	for i := 0; i < 1000; i++ {
		tr.Lookup(types.NewInt(int64(i % 500)))
		tr.Scan(Incl(types.NewInt(0)), Incl(types.NewInt(10)), func(types.Value, []*Row) bool { return true })
	}
	<-done
	if tr.Len() != 20000 {
		t.Errorf("Len = %d", tr.Len())
	}
}

// TestBTreeLookupAtSkipsVersionsSupersededForGood: a key updated in place
// grows a chain of versions of which only the last few can be visible. Each
// insert under the key extends the mark over the head of the chain that
// committed deletes (or aborted creators) have made invisible for good, and
// LookupAt hands a snapshot only the rest — provided the snapshot is not
// older than the last of those deletes; Lookup still returns everything.
func TestBTreeLookupAtSkipsVersionsSupersededForGood(t *testing.T) {
	tree := NewBTree()
	key := types.NewString("m1")
	version := func(xminSeq, xmaxSeq uint64) *Row {
		r := NewRow([]types.Value{key}, 1)
		r.XminSeq.Store(xminSeq)
		if xmaxSeq != 0 {
			r.Xmax.Store(2)
			r.XmaxSeq.Store(xmaxSeq)
		}
		return r
	}
	v1 := version(1, 5)          // deleted by the commit at 5
	v2 := version(AbortedSeq, 0) // its creator aborted
	v3 := version(5, 9)          // deleted by the commit at 9
	v4 := version(9, 0)          // live
	for _, r := range []*Row{v1, v2, v3, v4} {
		tree.Insert(key, r)
	}
	if got := tree.Lookup(key); len(got) != 4 {
		t.Fatalf("Lookup returned %d versions, want all 4", len(got))
	}
	if got := tree.LookupAt(key, 9); len(got) != 1 || got[0] != v4 {
		t.Errorf("snapshot at 9 is offered %d versions, want only the live one", len(got))
	}
	// A snapshot from before the last covered delete still needs v3 (and
	// gets the whole chain: the mark is one number, not one per snapshot).
	if got := tree.LookupAt(key, 7); len(got) != 4 {
		t.Errorf("snapshot at 7 is offered %d versions, want all 4", len(got))
	}

	// A version whose deleter has not committed (or aborted) stops the mark,
	// and the newest version is never covered.
	pending := version(9, 0)
	pending.Xmax.Store(3) // delete mark held, no commit sequence yet
	other := NewBTree()
	for _, r := range []*Row{version(1, 4), pending, version(1, 6), version(6, 8)} {
		other.Insert(key, r)
	}
	if got := other.LookupAt(key, 100); len(got) != 3 || got[0] != pending {
		t.Errorf("mark ran past an unresolved deleter: %d versions offered, want 3", len(got))
	}
	pending.XmaxSeq.Store(12)
	other.Insert(key, version(12, 0))
	if got := other.LookupAt(key, 100); len(got) != 1 {
		t.Errorf("after the deleter committed: %d versions offered, want only the newest", len(got))
	}
	if got := other.LookupAt(key, 11); len(got) != 5 {
		t.Errorf("snapshot at 11 (before that commit): %d versions offered, want all 5", len(got))
	}
}
