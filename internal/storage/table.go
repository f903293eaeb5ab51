package storage

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"trac/internal/types"
)

// Column describes one column of a table.
type Column struct {
	Name       string
	Kind       types.Kind
	Domain     types.Domain // consulted by satisfiability & brute force
	PrimaryKey bool
}

// Schema is the column layout of a table plus TRAC-specific metadata: the
// index of the data source column (§3.3 of the paper: every monitored table
// carries a column identifying which source wrote each tuple).
type Schema struct {
	Columns      []Column
	SourceColumn int // index into Columns, or -1 for unmonitored tables
	// Checks holds table-level CHECK constraint predicates as parsed
	// expression ASTs (typed as any to avoid a storage→sqlparser
	// dependency; the engine and the recency generator cast them back).
	Checks []any

	byName map[string]int
}

// NewSchema builds a schema. Column names are resolved case-insensitively.
func NewSchema(cols []Column) (*Schema, error) {
	s := &Schema{Columns: cols, SourceColumn: -1, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("storage: duplicate column %q", c.Name)
		}
		s.byName[key] = i
		if s.Columns[i].Domain.ValueKind == types.KindNull && s.Columns[i].Domain.Kind == types.DomainUnbounded {
			// Default domain: unbounded over the column's kind.
			s.Columns[i].Domain = types.UnboundedDomain(c.Kind)
		}
	}
	return s, nil
}

// ColumnIndex resolves a column name to its position, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// NumColumns returns the column count.
func (s *Schema) NumColumns() int { return len(s.Columns) }

// SetSourceColumn marks the named column as the data source column.
func (s *Schema) SetSourceColumn(name string) error {
	i := s.ColumnIndex(name)
	if i < 0 {
		return fmt.Errorf("storage: no column %q to mark as data source", name)
	}
	s.SourceColumn = i
	return nil
}

// Table is a versioned heap: an append-only vector of row versions plus
// optional B+tree secondary indexes. Visibility of individual versions is
// the transaction layer's concern; the heap keeps every version.
type Table struct {
	Name   string
	Schema *Schema

	mu      sync.RWMutex
	rows    []*Row
	indexes map[int]*BTree // column index -> tree
	statsH  statsHolder

	// Dual-format storage: segments hold the sealed columnar prefix of
	// rows (rows[:sealed]); the suffix is the append-friendly row tail.
	// sealEvery is the auto-seal threshold (see SetSealThreshold).
	segments  []*Segment
	sealed    int
	sealEvery int

	// wins holds the tail, rows[sealed:], in columnar form (see newWindow).
	wins []*Segment

	// dead counts versions superseded by a committed-or-pending UPDATE or
	// DELETE (see NoteDead); LiveRows subtracts it from the version count.
	dead atomic.Int64

	// marks counts delete marks set on the table's versions (NoteDeleteMark).
	marks atomic.Uint64

	// visited counts versions readers checked for visibility (NoteVisited).
	visited atomic.Int64

	// spill is non-nil while part of the table is not resident yet: a
	// recovered table's checkpointed sealed prefix, still only in its segment
	// file, or a temp table's contents, not yet built. Read accessors hydrate
	// it on first touch; Append deliberately does not (recovery replaying an
	// append-only WAL tail stays O(tail)). See SetSpill.
	spill atomic.Pointer[tableSpill]

	// part is set when this table is one hash partition of a sharded
	// deployment (see internal/shard); nil for an unsharded or replicated
	// table. Stored here so seal/zone statistics can be reported per
	// partition.
	part *Partition
}

// Partition identifies one hash partition of a sharded table: this replica
// holds the rows whose partition-column hash lands on shard Index of Of.
type Partition struct {
	Index  int    // shard index, 0-based
	Of     int    // total shard count
	Column string // partition column name
}

// SetPartition marks the table as shard p.Index's partition. Called by the
// shard router right after DDL lands on the shard.
func (t *Table) SetPartition(p Partition) {
	t.mu.Lock()
	t.part = &p
	t.mu.Unlock()
}

// Partition returns the table's partition identity, or ok=false when the
// table is unsharded or replicated to every shard.
func (t *Table) Partition() (Partition, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.part == nil {
		return Partition{}, false
	}
	return *t.part, true
}

// PartitionStats is the per-partition seal/zone summary a shard reports for
// one local table replica: how much of the partition is sealed columnar, how
// large the row tail is, and how many distinct sources the sealed segments'
// source sets hold (the figure shard-level source-set pruning works from).
type PartitionStats struct {
	Partition     Partition
	Partitioned   bool // false: replicated/unsharded replica
	Segments      int
	SealedRows    int
	TailRows      int
	ZoneSources   int  // distinct sources across sealed segments
	SourcesCapped bool // some segment overflowed MaxZoneSources
}

// PartitionStats snapshots the table's partition-aware seal/zone statistics.
// The distinct-source union covers only the schema's source column (the only
// column segments track value sets for, see Segment.Sources); a segment
// whose set overflowed MaxZoneSources marks the union as capped rather than
// silently undercounting.
func (t *Table) PartitionStats() PartitionStats {
	t.ensureHydrated()
	t.mu.RLock()
	defer t.mu.RUnlock()
	ps := PartitionStats{
		Segments:   len(t.segments),
		SealedRows: t.sealed,
		TailRows:   len(t.rows) - t.sealed,
	}
	if t.part != nil {
		ps.Partition, ps.Partitioned = *t.part, true
	}
	if sc := t.Schema.SourceColumn; sc >= 0 {
		union := make(map[string]struct{})
		for _, seg := range t.segments {
			sources := seg.Sources(sc, seg.Rows)
			if sources == nil && seg.Len() > seg.Zones[sc].NullCount {
				ps.SourcesCapped = true
			}
			for _, s := range sources {
				union[s] = struct{}{}
			}
		}
		ps.ZoneSources = len(union)
	}
	return ps
}

// tableSpill is the not-yet-hydrated portion of a table.
type tableSpill struct {
	once sync.Once
	err  error
	load func() ([]*Segment, []*Row, error)
	// pendingIdx lists column positions whose indexes are created at
	// hydration time (building them earlier would force the load).
	pendingIdx []int
}

// SetSpill registers a lazy loader for the part of the table that is not
// resident yet. Until the first read access, the table holds only the rows
// appended to it; the loader then supplies sealed segments (a recovered
// table's checkpointed prefix) and unsealed rows (a temp table's contents),
// which are spliced, in that order, in front of the rows appended in the
// meantime, and the pending indexes are built over the full heap; a loader
// that supplies rows is for a table that seals nothing before they arrive
// (a temp table never seals), so that segments keep covering a prefix of the
// heap. The loader runs at most once, even under concurrent first readers.
// Call before the table is shared across goroutines (during recovery, or
// before the table is registered in a catalog).
func (t *Table) SetSpill(load func() ([]*Segment, []*Row, error), pendingIdx []int) {
	t.spill.Store(&tableSpill{load: load, pendingIdx: pendingIdx})
}

// Spilled reports whether the table still has an unhydrated spilled prefix.
func (t *Table) Spilled() bool { return t.spill.Load() != nil }

// Hydrate forces the spilled prefix resident, returning the load error (a
// failed checksum, a missing file). It is idempotent and safe for
// concurrent use; on success the table behaves as if fully loaded.
func (t *Table) Hydrate() error {
	sp := t.spill.Load()
	if sp == nil {
		return nil
	}
	sp.once.Do(func() { sp.err = t.hydrate(sp) })
	if sp.err != nil {
		return sp.err
	}
	t.spill.Store(nil)
	return nil
}

// hydrate splices the loaded segments and rows in front of the live tail.
// Runs at most once per tableSpill (guarded by its sync.Once).
func (t *Table) hydrate(sp *tableSpill) error {
	segs, loaded, err := sp.load()
	if err != nil {
		return err
	}
	for _, row := range loaded {
		if len(row.Values) != len(t.Schema.Columns) {
			return fmt.Errorf("storage: table %s expects %d values, got %d",
				t.Name, len(t.Schema.Columns), len(row.Values))
		}
	}
	total := 0
	for _, s := range segs {
		total += s.Len()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rows := make([]*Row, 0, total+len(loaded)+len(t.rows))
	for _, s := range segs {
		rows = append(rows, s.Rows...)
	}
	rows = append(rows, loaded...)
	rows = append(rows, t.rows...)
	t.rows = rows
	t.segments = append(segs[:len(segs):len(segs)], t.segments...)
	t.sealed += total
	t.wins = nil // the tail now starts with the loaded rows
	t.fillLocked(0, t.rows[t.sealed:])
	for col := range t.indexes {
		// An index created before hydration (not possible through the
		// public API, which hydrates first) would be missing the spilled
		// rows; rebuild defensively.
		rebuilt := NewBTree()
		for _, row := range t.rows {
			rebuilt.Insert(row.Values[col], row)
		}
		t.indexes[col] = rebuilt
	}
	for _, col := range sp.pendingIdx {
		if _, ok := t.indexes[col]; ok {
			continue
		}
		idx := NewBTree()
		for _, row := range t.rows {
			idx.Insert(row.Values[col], row)
		}
		t.indexes[col] = idx
	}
	return nil
}

// ensureHydrated is the accessor-side gate: a nil spill pointer (the
// steady state) costs one atomic load. Hydration failure here is a
// detected-corruption invariant violation with no error channel to the
// caller, so it panics; recovery paths that want the error call Hydrate
// directly (engine.OpenDir's verify mode does, eagerly).
func (t *Table) ensureHydrated() {
	if t.spill.Load() == nil {
		return
	}
	if err := t.Hydrate(); err != nil {
		panic(fmt.Sprintf("storage: table %s: hydrating spilled segments: %v", t.Name, err))
	}
}

// NewTable creates an empty table.
func NewTable(name string, schema *Schema) *Table {
	return &Table{Name: name, Schema: schema, indexes: make(map[int]*BTree)}
}

// Append publishes a new row version. The caller (transaction layer) is
// responsible for having set Xmin. Values must match the schema arity.
func (t *Table) Append(row *Row) error { return t.AppendRows([]*Row{row}) }

// AppendRows publishes a run of row versions under one lock acquisition.
func (t *Table) AppendRows(rows []*Row) error {
	for _, row := range rows {
		if len(row.Values) != len(t.Schema.Columns) {
			return fmt.Errorf("storage: table %s expects %d values, got %d",
				t.Name, len(t.Schema.Columns), len(row.Values))
		}
	}
	t.mu.Lock()
	t.fillLocked(len(t.rows)-t.sealed, rows)
	t.rows = append(t.rows, rows...)
	for col, idx := range t.indexes {
		for _, row := range rows {
			idx.Insert(row.Values[col], row)
		}
	}
	t.maybeSealLocked()
	t.mu.Unlock()
	return nil
}

// Rows returns a stable snapshot of the version vector: versions appended
// after the call are not included, and the returned slice is never mutated.
func (t *Table) Rows() []*Row {
	t.ensureHydrated()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[:len(t.rows):len(t.rows)]
}

// NumVersions returns the total number of row versions in the heap.
func (t *Table) NumVersions() int {
	t.ensureHydrated()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// NoteDead records that n versions of this table were superseded or deleted.
// The engine calls it once per UPDATE/DELETE statement; the count is an
// estimate (an aborted writer is not subtracted back), which is all the
// planner's cardinalities need.
func (t *Table) NoteDead(n int) { t.dead.Add(int64(n)) }

// NoteDeleteMark records that a transaction has just set the delete mark of
// one of the table's versions. Unlike NoteDead it is exact: the transaction
// layer calls it for every mark, after setting it, and Settled relies on
// that.
func (t *Table) NoteDeleteMark() { t.marks.Add(1) }

// NoteVisited records that a reader checked n versions of this table for
// visibility: one call per scan unit, index probe or keyed write, not per
// row. VersionsVisited is what pins that a table rewritten in place is read
// at the cost of its live rows (see Segment.Live, BTree.LookupAt).
func (t *Table) NoteVisited(n int) { t.visited.Add(int64(n)) }

// VersionsVisited returns the running total NoteVisited has been told.
func (t *Table) VersionsVisited() int64 { return t.visited.Load() }

// LiveRows approximates the number of live rows: versions minus the ones
// NoteDead has been told about. Planner estimates use it so that a small,
// frequently updated table (Heartbeat) is not costed by its dead versions.
func (t *Table) LiveRows() int {
	if n := t.NumVersions() - int(t.dead.Load()); n > 0 {
		return n
	}
	return 0
}

// CreateIndex builds a B+tree over the named column, backfilling existing
// versions. Creating an index that already exists is a no-op.
func (t *Table) CreateIndex(column string) error {
	col := t.Schema.ColumnIndex(column)
	if col < 0 {
		return fmt.Errorf("storage: table %s has no column %q", t.Name, column)
	}
	if err := t.Hydrate(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[col]; ok {
		return nil
	}
	idx := NewBTree()
	for _, row := range t.rows {
		idx.Insert(row.Values[col], row)
	}
	t.indexes[col] = idx
	return nil
}

// Index returns the B+tree over the given column position, or nil.
func (t *Table) Index(col int) *BTree {
	t.ensureHydrated()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[col]
}

// IndexedColumns lists column positions that currently have indexes,
// including ones whose build is deferred until hydration.
func (t *Table) IndexedColumns() []int {
	if sp := t.spill.Load(); sp != nil {
		// Answerable without forcing the load: the pending set plus any
		// already-built indexes (none pre-hydration through the public API).
		out := append([]int(nil), sp.pendingIdx...)
		return out
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]int, 0, len(t.indexes))
	for col := range t.indexes {
		out = append(out, col)
	}
	return out
}

// Catalog maps table names (case-insensitive) to tables. It also carries a
// version counter that the engine bumps on every schema-affecting change
// (CREATE/DROP TABLE, CREATE INDEX, CHECK additions, source-column and
// domain declarations); prepared-plan caches key their entries by it, so a
// DDL change invalidates every cached plan without tracking dependencies.
// Session temp tables deliberately do not bump the version — materializing
// a recency report must not evict the plan that produced it.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	version atomic.Uint64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Create registers a new table.
func (c *Catalog) Create(t *Table) error {
	key := strings.ToLower(t.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[key]; exists {
		return fmt.Errorf("storage: table %q already exists", t.Name)
	}
	c.tables[key] = t
	return nil
}

// Get resolves a table by name.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("storage: table %q does not exist", name)
	}
	return t, nil
}

// Drop removes a table.
func (c *Catalog) Drop(name string) error {
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("storage: table %q does not exist", name)
	}
	delete(c.tables, key)
	return nil
}

// Version returns the catalog's schema version.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// BumpVersion advances the schema version, invalidating version-keyed plan
// caches. The engine calls it on DDL and constraint/metadata changes.
func (c *Catalog) BumpVersion() { c.version.Add(1) }

// Names lists registered tables in unspecified order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	return out
}
