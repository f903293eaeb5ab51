// Package engine is the top of the database substrate: it owns the catalog
// and transaction manager, executes SQL statements end to end, and manages
// the session temp tables the recency reporter materializes its results
// into (the paper's sys_temp_* tables).
package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"trac/internal/constraint"
	"trac/internal/crashfs"
	"trac/internal/exec"
	"trac/internal/planner"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// DB is an embedded database instance.
type DB struct {
	catalog   *storage.Catalog
	mgr       *txn.Manager
	planner   *planner.Planner
	planCache *PlanCache
	tempSeq   atomic.Uint64
	// temps holds the names of the live session temp tables, which a
	// checkpoint leaves out: they end with their session, not with the
	// process.
	temps sync.Map

	walMu sync.Mutex
	wal   *WAL

	// ckptMu serializes checkpoints against in-flight commit+WAL-append
	// pairs: committers hold it shared across (engine commit, log append),
	// checkpoints hold it exclusively across (dump snapshot, log truncate),
	// so no transaction can land on one side of the snapshot and the other
	// side of the truncate.
	ckptMu sync.RWMutex

	// fsys routes all durability I/O (WAL, dumps, segment files); nil means
	// the real filesystem. Crash tests inject a crashfs.Mem here.
	fsys crashfs.FS

	// dir is set when the database was opened via OpenDir and records the
	// durable directory CheckpointDir writes into.
	dir   string
	epoch uint64
}

// fsRef returns the filesystem all durability I/O goes through.
func (db *DB) fsRef() crashfs.FS {
	if db.fsys == nil {
		return crashfs.OS{}
	}
	return db.fsys
}

// New creates an empty database. Its first commit is the bootstrap
// transaction's, with no writes: the commit horizon is at least 1 from the
// start, so rows stamped as committed by it (storage.BootstrapRows: rows
// recovered from a checkpoint, a temp table's contents) are visible to every
// snapshot.
func New() *DB {
	cat := storage.NewCatalog()
	db := &DB{
		catalog:   cat,
		mgr:       txn.NewManager(),
		planner:   planner.New(cat),
		planCache: NewPlanCache(0),
	}
	if err := db.mgr.Begin().Commit(); err != nil {
		// Unreachable: Commit fails only on a transaction already finished.
		panic(err)
	}
	return db
}

// Catalog exposes the table catalog (schema registration, domains, source
// columns).
func (db *DB) Catalog() *storage.Catalog { return db.catalog }

// Manager exposes the transaction manager.
func (db *DB) Manager() *txn.Manager { return db.mgr }

// Planner exposes the planner (used by the recency generator to inspect
// plans and by ablation benchmarks).
func (db *DB) Planner() *planner.Planner { return db.planner }

// PlanCache exposes the plan/prepared-report cache. The recency reporter
// stores report.Prepared objects here; the engine itself caches parsed ASTs.
func (db *DB) PlanCache() *PlanCache { return db.planCache }

// CatalogVersion returns the schema version counter used to tag cache
// entries. It advances on DDL and CHECK-constraint changes, NOT on session
// temp-table churn (see storage.Catalog).
func (db *DB) CatalogVersion() uint64 { return db.catalog.Version() }

// Snapshot returns a read snapshot at the current commit horizon. A user
// query and its recency query are both run under one such snapshot to meet
// the paper's consistency requirement.
func (db *DB) Snapshot() txn.Snapshot { return db.mgr.ReadSnapshot() }

// Result is a fully materialized query result.
type Result struct {
	Columns []string
	Rows    [][]types.Value
	// Parallel is the plan's parallel scan degree (1 = single-threaded).
	Parallel int
	// Vectorized reports whether the plan executed batch-at-a-time.
	Vectorized bool
}

// Format renders the result as an aligned text table (psql-like), used by
// the shell and examples.
func (r *Result) Format() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			sb.WriteString(" | ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], c)
	}
	sb.WriteByte('\n')
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("-+-")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for i, cell := range row {
			if i > 0 {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "(%d rows)\n", len(r.Rows))
	if r.Parallel > 1 {
		fmt.Fprintf(&sb, "(parallel degree %d)\n", r.Parallel)
	}
	if r.Vectorized {
		sb.WriteString("(vectorized)\n")
	}
	return sb.String()
}

// Query parses and runs a SELECT at the current commit horizon.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryAt(sql, db.Snapshot())
}

// QueryAt parses and runs a SELECT under a caller-provided snapshot.
func (db *DB) QueryAt(sql string, snap txn.Snapshot) (*Result, error) {
	sel, err := db.parseSelectCached(sql)
	if err != nil {
		return nil, err
	}
	return db.QueryStmtAt(sel, snap)
}

// parseSelectCached memoizes SELECT parsing in the plan cache. Parsed ASTs
// are catalog-independent (name resolution happens at plan time), so entries
// are tagged with version 0 and survive DDL.
func (db *DB) parseSelectCached(sql string) (*sqlparser.SelectStmt, error) {
	key := "ast:" + NormalizeSQL(sql)
	if v, ok := db.planCache.Get(key, 0); ok {
		return v.(*sqlparser.SelectStmt), nil
	}
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	db.planCache.Put(key, 0, sel)
	return sel, nil
}

// ParseSelect exposes the memoized SELECT parse to callers that split
// planning from execution themselves (the shard router builds per-shard
// statements from one parsed AST). Same cache, same semantics as Query.
func (db *DB) ParseSelect(sql string) (*sqlparser.SelectStmt, error) {
	return db.parseSelectCached(sql)
}

// QueryStmtAt runs an already-parsed SELECT under a snapshot.
func (db *DB) QueryStmtAt(sel *sqlparser.SelectStmt, snap txn.Snapshot) (*Result, error) {
	plan, err := db.planner.PlanSelect(sel, snap)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Drain(plan.Root)
	if err != nil {
		return nil, err
	}
	parallel := plan.Parallel
	if parallel < 1 {
		parallel = 1
	}
	return &Result{Columns: plan.Columns, Rows: rows, Parallel: parallel, Vectorized: plan.Vectorized}, nil
}

// QueryBatchAt runs an already-parsed SELECT under a snapshot and returns its
// answer unboxed, as one batch the caller owns and recycles with
// exec.PutBatch (nil when there are no rows): what a recency report reads
// its (source, recency) pairs from, column by column.
func (db *DB) QueryBatchAt(sel *sqlparser.SelectStmt, snap txn.Snapshot) (*exec.Batch, error) {
	plan, err := db.planner.PlanSelect(sel, snap)
	if err != nil {
		return nil, err
	}
	return exec.DrainBatch(plan.Root)
}

// ExplainAt plans a SELECT and returns the planner's notes without running
// it.
func (db *DB) ExplainAt(sql string, snap txn.Snapshot) (string, error) {
	sel, err := db.parseSelectCached(sql)
	if err != nil {
		return "", err
	}
	plan, err := db.planner.PlanSelect(sel, snap)
	if err != nil {
		return "", err
	}
	return plan.Describe(), nil
}

// Exec parses and executes any statement. For SELECT it returns the number
// of result rows; for DML the number of affected rows; for DDL zero.
func (db *DB) Exec(sql string) (int, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return 0, err
	}
	return db.ExecStmt(stmt)
}

// ExecStmt executes an already-parsed statement exactly as Exec would its
// text. A caller that hands one statement to several databases (the shard
// router's broadcasts) parses it once; statements are immutable once parsed,
// so sharing one across databases and goroutines is safe.
func (db *DB) ExecStmt(stmt sqlparser.Statement) (int, error) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		res, err := db.QueryStmtAt(s, db.Snapshot())
		if err != nil {
			return 0, err
		}
		return len(res.Rows), nil
	case *sqlparser.InsertStmt:
		return db.loggedAutocommit(s, func(tx *txn.Txn) (int, error) { return db.execInsert(s, tx) })
	case *sqlparser.UpdateStmt:
		return db.loggedAutocommit(s, func(tx *txn.Txn) (int, error) { return db.execUpdate(s, tx) })
	case *sqlparser.DeleteStmt:
		return db.loggedAutocommit(s, func(tx *txn.Txn) (int, error) { return db.execDelete(s, tx) })
	// DDL cases hold the checkpoint lock shared across the apply+log pair
	// (see DB.ckptMu) so a concurrent checkpoint cannot split them.
	case *sqlparser.CreateTableStmt:
		db.ckptMu.RLock()
		defer db.ckptMu.RUnlock()
		if err := db.execCreateTable(s); err != nil {
			return 0, err
		}
		db.catalog.BumpVersion()
		return 0, db.logCommitted(s)
	case *sqlparser.CreateIndexStmt:
		db.ckptMu.RLock()
		defer db.ckptMu.RUnlock()
		tbl, err := db.catalog.Get(s.Table)
		if err != nil {
			return 0, err
		}
		if err := tbl.CreateIndex(s.Column); err != nil {
			return 0, err
		}
		db.catalog.BumpVersion()
		return 0, db.logCommitted(s)
	case *sqlparser.DropTableStmt:
		db.ckptMu.RLock()
		defer db.ckptMu.RUnlock()
		if err := db.catalog.Drop(s.Name); err != nil {
			return 0, err
		}
		db.catalog.BumpVersion()
		return 0, db.logCommitted(s)
	case *sqlparser.AnalyzeStmt:
		// Statistics are derived state: not WAL-logged.
		return 0, db.execAnalyze(s)
	default:
		return 0, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// MustExec executes a statement and panics on error; it is intended for
// tests and fixtures.
func (db *DB) MustExec(sql string) int {
	n, err := db.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("engine: MustExec(%q): %v", sql, err))
	}
	return n
}

func (db *DB) execCreateTable(s *sqlparser.CreateTableStmt) error {
	cols := make([]storage.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = storage.Column{Name: c.Name, Kind: c.Type, PrimaryKey: c.PrimaryKey}
	}
	schema, err := storage.NewSchema(cols)
	if err != nil {
		return err
	}
	tbl := storage.NewTable(s.Name, schema)
	// Validate CHECK expressions against the table's own columns before
	// registering them.
	layout := exec.NewLayout([]exec.Binding{{Name: s.Name, Table: tbl}})
	for _, ck := range s.Checks {
		if _, err := exec.Compile(ck.Expr, layout); err != nil {
			return fmt.Errorf("engine: CHECK constraint: %w", err)
		}
		schema.Checks = append(schema.Checks, ck.Expr)
	}
	if err := db.catalog.Create(tbl); err != nil {
		return err
	}
	// Primary key columns get an index automatically (it also backs the
	// uniqueness check on insert).
	for _, c := range s.Columns {
		if c.PrimaryKey {
			if err := tbl.CreateIndex(c.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// AddCheck registers a CHECK constraint on an existing table. Existing rows
// are validated against it.
func (db *DB) AddCheck(table, exprSQL string) error {
	tbl, err := db.catalog.Get(table)
	if err != nil {
		return err
	}
	e, err := sqlparser.ParseExpr(exprSQL)
	if err != nil {
		return err
	}
	layout := exec.NewLayout([]exec.Binding{{Name: tbl.Name, Table: tbl}})
	ev, err := exec.Compile(e, layout)
	if err != nil {
		return err
	}
	snap := db.Snapshot()
	for _, r := range tbl.Rows() {
		if !snap.Visible(r) {
			continue
		}
		v, err := ev(r.Values)
		if err != nil {
			return err
		}
		if v.Kind() == types.KindBool && !v.Bool() {
			return fmt.Errorf("engine: existing row violates CHECK (%s)", exprSQL)
		}
	}
	tbl.Schema.Checks = append(tbl.Schema.Checks, e)
	// CHECK constraints shape generated recency plans (§3.4 constraint
	// exploitation), so cached plans must not survive this.
	db.catalog.BumpVersion()
	return nil
}

// TableChecks returns a table's CHECK constraint expressions.
func TableChecks(tbl *storage.Table) []sqlparser.Expr {
	out := make([]sqlparser.Expr, 0, len(tbl.Schema.Checks))
	for _, c := range tbl.Schema.Checks {
		if e, ok := c.(sqlparser.Expr); ok {
			out = append(out, e)
		}
	}
	return out
}

// enforceChecks rejects a row that makes any CHECK constraint FALSE
// (UNKNOWN passes, per SQL semantics).
func (db *DB) enforceChecks(tbl *storage.Table, values []types.Value) error {
	if len(tbl.Schema.Checks) == 0 {
		return nil
	}
	layout := exec.NewLayout([]exec.Binding{{Name: tbl.Name, Table: tbl}})
	for _, c := range TableChecks(tbl) {
		ev, err := exec.Compile(c, layout)
		if err != nil {
			return err
		}
		v, err := ev(values)
		if err != nil {
			return err
		}
		if v.Kind() == types.KindBool && !v.Bool() {
			return fmt.Errorf("engine: row violates CHECK (%s) on table %s", c.SQL(), tbl.Name)
		}
	}
	return nil
}

// loggedAutocommit runs one DML statement in its own transaction and, on
// success, appends it to the WAL (when attached). The checkpoint lock is
// held shared across the commit+append pair (see DB.ckptMu).
func (db *DB) loggedAutocommit(stmt sqlparser.Statement, fn func(tx *txn.Txn) (int, error)) (int, error) {
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	n, err := db.autocommit(fn)
	if err != nil {
		return n, err
	}
	if err := db.logCommitted(stmt); err != nil {
		return n, fmt.Errorf("%w: %v", ErrWALAppend, err)
	}
	return n, nil
}

// autocommit runs one DML statement in its own transaction.
func (db *DB) autocommit(fn func(tx *txn.Txn) (int, error)) (int, error) {
	tx := db.mgr.Begin()
	n, err := fn(tx)
	if err != nil {
		tx.Abort()
		return 0, err
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return n, nil
}

func (db *DB) execInsert(s *sqlparser.InsertStmt, tx *txn.Txn) (int, error) {
	tbl, err := db.catalog.Get(s.Table)
	if err != nil {
		return 0, err
	}
	schema := tbl.Schema
	// Map statement columns to schema positions.
	var colIdx []int
	if len(s.Columns) == 0 {
		colIdx = make([]int, schema.NumColumns())
		for i := range colIdx {
			colIdx[i] = i
		}
	} else {
		colIdx = make([]int, len(s.Columns))
		for i, name := range s.Columns {
			ci := schema.ColumnIndex(name)
			if ci < 0 {
				return 0, fmt.Errorf("engine: table %s has no column %q", tbl.Name, name)
			}
			colIdx[i] = ci
		}
	}

	emptyLayout := exec.NewLayout(nil)
	for _, row := range s.Rows {
		if len(row) != len(colIdx) {
			return 0, fmt.Errorf("engine: INSERT row has %d values, expected %d", len(row), len(colIdx))
		}
		values := make([]types.Value, schema.NumColumns())
		for i := range values {
			values[i] = types.Null
		}
		for i, e := range row {
			ev, err := exec.Compile(e, emptyLayout)
			if err != nil {
				return 0, err
			}
			v, err := ev(nil)
			if err != nil {
				return 0, err
			}
			ci := colIdx[i]
			v, err = coerceToColumn(v, schema.Columns[ci])
			if err != nil {
				return 0, fmt.Errorf("engine: column %s: %w", schema.Columns[ci].Name, err)
			}
			values[ci] = v
		}
		if err := db.enforceChecks(tbl, values); err != nil {
			return 0, err
		}
		if err := db.checkPrimaryKey(tbl, values, tx); err != nil {
			return 0, err
		}
		if err := tx.InsertRow(tbl, storage.NewRow(values, 0)); err != nil {
			return 0, err
		}
	}
	return len(s.Rows), nil
}

// checkPrimaryKey rejects an insert that would duplicate a visible primary
// key value.
func (db *DB) checkPrimaryKey(tbl *storage.Table, values []types.Value, tx *txn.Txn) error {
	for ci, col := range tbl.Schema.Columns {
		if !col.PrimaryKey {
			continue
		}
		idx := tbl.Index(ci)
		if idx == nil {
			continue
		}
		chain := idx.LookupAt(values[ci], tx.Snapshot().Seq)
		tbl.NoteVisited(len(chain))
		for _, r := range chain {
			if tx.Snapshot().Visible(r) {
				return fmt.Errorf("engine: duplicate primary key %s in table %s",
					values[ci], tbl.Name)
			}
		}
	}
	return nil
}

// matchRows finds visible rows of tbl satisfying where (index-assisted when
// possible).
func (db *DB) matchRows(tbl *storage.Table, where sqlparser.Expr, snap txn.Snapshot) ([]*storage.Row, error) {
	layout := exec.NewLayout([]exec.Binding{{Name: tbl.Name, Table: tbl}})
	var filter exec.Evaluator
	if where != nil {
		var err error
		filter, err = exec.Compile(where, layout)
		if err != nil {
			return nil, err
		}
	}
	candidates := candidateRows(tbl, planner.EqualityProbes(tbl, where), snap.Seq)
	tbl.NoteVisited(len(candidates))
	var out []*storage.Row
	for _, r := range candidates {
		if !snap.Visible(r) {
			continue
		}
		ok, err := exec.EvalPredicate(filter, r.Values)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// candidateRows returns the versions an UPDATE/DELETE checks at seq: the
// heap without probes, else the shortest probe's chains, each key looked up
// once, ties going to the lowest column (probes come in column order).
func candidateRows(tbl *storage.Table, probes []planner.Probe, seq uint64) []*storage.Row {
	if len(probes) == 0 {
		return tbl.Rows()
	}
	var best []*storage.Row
	for i, p := range probes {
		idx := tbl.Index(p.Col)
		// Clipped, so that appending copies: the chain is the index's own.
		rows := slices.Clip(idx.LookupAt(p.Keys[0], seq))
		for _, k := range p.Keys[1:] {
			rows = append(rows, idx.LookupAt(k, seq)...)
		}
		if i == 0 || len(rows) < len(best) {
			best = rows
		}
	}
	return best
}

func (db *DB) execUpdate(s *sqlparser.UpdateStmt, tx *txn.Txn) (int, error) {
	tbl, err := db.catalog.Get(s.Table)
	if err != nil {
		return 0, err
	}
	layout := exec.NewLayout([]exec.Binding{{Name: tbl.Name, Table: tbl}})
	type setter struct {
		col int
		ev  exec.Evaluator
	}
	setters := make([]setter, len(s.Set))
	for i, a := range s.Set {
		ci := tbl.Schema.ColumnIndex(a.Column)
		if ci < 0 {
			return 0, fmt.Errorf("engine: table %s has no column %q", tbl.Name, a.Column)
		}
		ev, err := exec.Compile(a.Value, layout)
		if err != nil {
			return 0, err
		}
		setters[i] = setter{col: ci, ev: ev}
	}

	matched, err := db.matchRows(tbl, s.Where, tx.Snapshot())
	if err != nil {
		return 0, err
	}
	for _, old := range matched {
		newVals := make([]types.Value, len(old.Values))
		copy(newVals, old.Values)
		for _, st := range setters {
			v, err := st.ev(old.Values)
			if err != nil {
				return 0, err
			}
			v, err = coerceToColumn(v, tbl.Schema.Columns[st.col])
			if err != nil {
				return 0, err
			}
			newVals[st.col] = v
		}
		if err := db.enforceChecks(tbl, newVals); err != nil {
			return 0, err
		}
		if err := tx.Delete(tbl, old); err != nil {
			return 0, err
		}
		if err := tx.InsertRow(tbl, storage.NewRow(newVals, 0)); err != nil {
			return 0, err
		}
	}
	tbl.NoteDead(len(matched))
	return len(matched), nil
}

func (db *DB) execDelete(s *sqlparser.DeleteStmt, tx *txn.Txn) (int, error) {
	tbl, err := db.catalog.Get(s.Table)
	if err != nil {
		return 0, err
	}
	matched, err := db.matchRows(tbl, s.Where, tx.Snapshot())
	if err != nil {
		return 0, err
	}
	for _, r := range matched {
		if err := tx.Delete(tbl, r); err != nil {
			return 0, err
		}
	}
	tbl.NoteDead(len(matched))
	return len(matched), nil
}

// coerceToColumn adapts a literal value to a column's kind (string →
// timestamp, int → float) and rejects clearly mistyped values.
// CoerceToColumn exposes the engine's insert-time coercion rules. The shard
// router hashes partition keys on the value actually stored, so its routing
// must coerce exactly the way execInsert does.
func CoerceToColumn(v types.Value, col storage.Column) (types.Value, error) {
	return coerceToColumn(v, col)
}

func coerceToColumn(v types.Value, col storage.Column) (types.Value, error) {
	if v.IsNull() || v.Kind() == col.Kind {
		return v, nil
	}
	switch {
	case col.Kind == types.KindTime && v.Kind() == types.KindString:
		if ts := constraint.Coerce(v, col.Kind); ts.Kind() == types.KindTime {
			return ts, nil
		}
		return types.Null, fmt.Errorf("cannot store TEXT %q into %s column: not a timestamp", v.Str(), col.Kind)
	case col.Kind == types.KindFloat && v.Kind() == types.KindInt:
		return types.NewFloat(float64(v.Int())), nil
	case col.Kind == types.KindInt && v.Kind() == types.KindFloat:
		f := v.Float()
		if f != float64(int64(f)) {
			return types.Null, fmt.Errorf("non-integral value %v for BIGINT column", f)
		}
		return types.NewInt(int64(f)), nil
	default:
		return types.Null, fmt.Errorf("cannot store %s into %s column", v.Kind(), col.Kind)
	}
}
