package storage

import (
	"sync"

	"trac/internal/types"
)

// btreeOrder is the maximum number of keys per node. 64 keeps nodes around a
// cache line multiple while making trees shallow for the multi-million-row
// benchmark tables.
const btreeOrder = 64

// BTree is a concurrent B+tree mapping a key value to the set of row
// versions carrying that key. Duplicates are expected (many rows per data
// source), so each key holds a slice of rows.
//
// The tree never removes entries: under MVCC, superseded versions stay
// reachable and are filtered by visibility at scan time. A production system
// would vacuum; for a monitoring workload dominated by inserts this is the
// behaviour the paper's PostgreSQL prototype exhibits between VACUUM runs.
// What it does keep, per key, is how long a head of the chain is superseded
// for good (goneMark), so that a key updated in place all day — a Heartbeat
// row — is probed at the cost of its live versions, not of its history.
type BTree struct {
	mu       sync.RWMutex
	root     node
	size     int // number of (key,row) pairs inserted
	distinct int // number of distinct keys
}

type node interface {
	isLeaf() bool
}

type innerNode struct {
	// keys[i] is the smallest key reachable under children[i+1].
	keys     []types.Value
	children []node
}

func (*innerNode) isLeaf() bool { return false }

type leafNode struct {
	keys []types.Value
	rows [][]*Row
	gone []goneMark // per key, parallel to rows
	next *leafNode
}

// goneMark says that the first n versions of a key's chain were, as of
// commit sequence seq, deleted by committed transactions (a committed delete
// is final) or created by aborted ones: a snapshot at or after seq cannot
// see any of them.
type goneMark struct {
	n   int
	seq uint64
}

func (*leafNode) isLeaf() bool { return true }

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &leafNode{}}
}

// Len returns the number of (key, row) pairs ever inserted.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// DistinctKeys returns the number of distinct keys in the tree. Planners use
// Len()/DistinctKeys() as the average duplicate chain length — for TRAC
// workloads this is the paper's "data ratio" (rows per data source).
func (t *BTree) DistinctKeys() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.distinct
}

// Insert adds a row under the given key.
func (t *BTree) Insert(key types.Value, row *Row) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.size++
	splitKey, right := t.insert(t.root, key, row)
	if right != nil {
		t.root = &innerNode{
			keys:     []types.Value{splitKey},
			children: []node{t.root, right},
		}
	}
}

// insert descends to the leaf and returns a (splitKey, rightSibling) pair
// when the child split and the parent must absorb a new separator.
func (t *BTree) insert(n node, key types.Value, row *Row) (types.Value, node) {
	switch nd := n.(type) {
	case *leafNode:
		i := lowerBound(nd.keys, key)
		if i < len(nd.keys) && types.Equal(nd.keys[i], key) {
			nd.rows[i] = append(nd.rows[i], row)
			nd.gone[i].advance(nd.rows[i])
			return types.Null, nil
		}
		nd.keys = append(nd.keys, types.Null)
		copy(nd.keys[i+1:], nd.keys[i:])
		nd.keys[i] = key
		nd.rows = append(nd.rows, nil)
		copy(nd.rows[i+1:], nd.rows[i:])
		nd.rows[i] = []*Row{row}
		nd.gone = append(nd.gone, goneMark{})
		copy(nd.gone[i+1:], nd.gone[i:])
		nd.gone[i] = goneMark{}
		t.distinct++
		if len(nd.keys) <= btreeOrder {
			return types.Null, nil
		}
		return t.splitLeaf(nd)
	case *innerNode:
		ci := upperBound(nd.keys, key)
		splitKey, right := t.insert(nd.children[ci], key, row)
		if right == nil {
			return types.Null, nil
		}
		nd.keys = append(nd.keys, types.Null)
		copy(nd.keys[ci+1:], nd.keys[ci:])
		nd.keys[ci] = splitKey
		nd.children = append(nd.children, nil)
		copy(nd.children[ci+2:], nd.children[ci+1:])
		nd.children[ci+1] = right
		if len(nd.keys) <= btreeOrder {
			return types.Null, nil
		}
		return t.splitInner(nd)
	default:
		panic("storage: unknown btree node type")
	}
}

func (t *BTree) splitLeaf(nd *leafNode) (types.Value, node) {
	mid := len(nd.keys) / 2
	right := &leafNode{
		keys: append([]types.Value(nil), nd.keys[mid:]...),
		rows: append([][]*Row(nil), nd.rows[mid:]...),
		gone: append([]goneMark(nil), nd.gone[mid:]...),
		next: nd.next,
	}
	nd.keys = nd.keys[:mid:mid]
	nd.rows = nd.rows[:mid:mid]
	nd.gone = nd.gone[:mid:mid]
	nd.next = right
	return right.keys[0], right
}

func (t *BTree) splitInner(nd *innerNode) (types.Value, node) {
	mid := len(nd.keys) / 2
	splitKey := nd.keys[mid]
	right := &innerNode{
		keys:     append([]types.Value(nil), nd.keys[mid+1:]...),
		children: append([]node(nil), nd.children[mid+1:]...),
	}
	nd.keys = nd.keys[:mid:mid]
	nd.children = nd.children[: mid+1 : mid+1]
	return splitKey, right
}

// advance extends the mark over the versions at the head of the chain that
// have been superseded for good since it was last looked at; the newest
// version is never covered. Called with the tree's write lock held, on each
// insert under the key, so a chain that grows by in-place updates is walked
// once per version.
func (g *goneMark) advance(chain []*Row) {
	for g.n < len(chain)-1 {
		r := chain[g.n]
		at := uint64(1) // creator aborted: never visible to anyone
		if r.XminSeq.Load() != AbortedSeq {
			if at = r.XmaxSeq.Load(); at == 0 || at == AbortedSeq {
				return // live, or its deleter is unresolved or aborted
			}
		}
		g.n, g.seq = g.n+1, max(g.seq, at)
	}
}

// Lookup returns every version stored under exactly key (nil if none). The
// returned slice must not be modified.
func (t *BTree) Lookup(key types.Value) []*Row { return t.LookupAt(key, 0) }

// LookupAt returns the versions stored under exactly key that a snapshot at
// commit sequence seq may see: the whole chain, minus its head of versions
// superseded for good when that is known to have happened at or before seq.
// The returned slice must not be modified.
func (t *BTree) LookupAt(key types.Value, seq uint64) []*Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for {
		switch nd := n.(type) {
		case *innerNode:
			n = nd.children[upperBound(nd.keys, key)]
		case *leafNode:
			i := lowerBound(nd.keys, key)
			if i < len(nd.keys) && types.Equal(nd.keys[i], key) {
				if g := nd.gone[i]; g.n > 0 && g.seq <= seq {
					return nd.rows[i][g.n:]
				}
				return nd.rows[i]
			}
			return nil
		}
	}
}

// Bound describes one end of a range scan.
type Bound struct {
	Value     types.Value
	Inclusive bool
	Unbounded bool
}

// Unbounded is the open bound.
var Unbounded = Bound{Unbounded: true}

// Incl returns an inclusive bound at v.
func Incl(v types.Value) Bound { return Bound{Value: v, Inclusive: true} }

// Excl returns an exclusive bound at v.
func Excl(v types.Value) Bound { return Bound{Value: v} }

// Scan visits every (key, rows) pair with lo <= key <= hi (respecting
// bound inclusivity) in ascending key order. The visit function returns
// false to stop early. The tree's lock is held for the duration of the
// scan; visit functions must not call back into the same tree.
func (t *BTree) Scan(lo, hi Bound, visit func(key types.Value, rows []*Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	// Descend to the first candidate leaf.
	n := t.root
	for {
		inner, ok := n.(*innerNode)
		if !ok {
			break
		}
		if lo.Unbounded {
			n = inner.children[0]
		} else {
			n = inner.children[upperBound(inner.keys, lo.Value)]
		}
	}
	leaf := n.(*leafNode)
	for leaf != nil {
		for i, key := range leaf.keys {
			if !lo.Unbounded {
				if types.Less(key, lo.Value) {
					continue
				}
				if !lo.Inclusive && types.Equal(key, lo.Value) {
					continue
				}
			}
			if !hi.Unbounded {
				if types.Less(hi.Value, key) {
					return
				}
				if !hi.Inclusive && types.Equal(key, hi.Value) {
					return
				}
			}
			if !visit(key, leaf.rows[i]) {
				return
			}
		}
		leaf = leaf.next
	}
}

// Keys returns every distinct key in ascending order (diagnostics/tests).
func (t *BTree) Keys() []types.Value {
	var out []types.Value
	t.Scan(Unbounded, Unbounded, func(k types.Value, _ []*Row) bool {
		out = append(out, k)
		return true
	})
	return out
}

// lowerBound returns the first index i with keys[i] >= key.
func lowerBound(keys []types.Value, key types.Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if types.Less(keys[mid], key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index i with keys[i] > key.
func upperBound(keys []types.Value, key types.Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if types.Less(key, keys[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
