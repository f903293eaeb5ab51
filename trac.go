// Package trac is a Go implementation of TRAC — "Toward Recency and
// Consistency Reporting in a Database with Distributed Data Sources"
// (Huang, Naughton, Livny; VLDB 2006).
//
// A TRAC database is an embedded relational engine (SQL, MVCC snapshots,
// B-tree indexes) intended as the centralized repository for the state of a
// distributed system whose components report in asynchronously — grid job
// schedulers writing logs that are sniffed and loaded, sensor fleets,
// distributed workflows. Instead of enforcing consistency, TRAC *reports*
// it: every query can be accompanied by a recency report that names exactly
// the data sources whose updates could change the answer, how recently each
// has reported, which of them are exceptionally out of date, and the "bound
// of inconsistency" across them.
//
// The minimal workflow:
//
//	db := trac.Open()
//	db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`)
//	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
//	db.SetSourceColumn("Activity", "mach_id")
//	// ... load data and heartbeats ...
//	sess := db.NewSession()
//	defer sess.Close()
//	rep, err := sess.RecencyReport(`SELECT mach_id FROM Activity WHERE value = 'idle'`)
//	fmt.Print(rep.Render())
package trac

import (
	"errors"
	"fmt"
	"sync"

	"trac/internal/core/recgen"
	"trac/internal/core/report"
	"trac/internal/engine"
	"trac/internal/shard"
	"trac/internal/sniffer"
	"trac/internal/storage"
	"trac/internal/types"
)

// DB is an embedded TRAC database.
type DB struct {
	be     backend
	eng    *engine.DB    // the engine, or shard 0: prepares reports, owns sessions
	router *shard.Router // non-nil when opened with WithShards(n > 1)

	// meta orders schema metadata — source columns, domains, CHECKs, which
	// SetSourceColumn, SetColumnDomain and AddCheck change in place — against
	// the calls that read it while they plan, generate or write rows: those
	// hold it shared, the three writers exclusively.
	meta sync.RWMutex
}

// backend is the one door every statement, report and lifecycle call goes
// through: a single engine or a shard router today, and the seam a durable
// sharded or remote one plugs into later. DB branches on sharding only where
// it builds one.
type backend interface {
	Exec(sql string) (int, error)
	Query(sql string) (*engine.Result, error)
	Explain(sql string) (string, error)
	// RecencyReport runs the single report path (report.RunAt) at this
	// backend's kind of read point: a snapshot, or a cut across the shards.
	RecencyReport(sess *engine.Session, sql string, cfg report.Config) (*report.Report, error)
	// Atomic applies fn to every engine as one event no read point splits.
	Atomic(fn func(*engine.DB) error) error
	N() int
	// SettleVersions re-levels catalog versions after one engine alone
	// changed its catalog (a session persisting a temp table on shard 0).
	SettleVersions()
	CheckpointDir() error
	Close() error
}

// engineBackend adapts one engine: it is its own only shard.
type engineBackend struct{ *engine.DB }

func (b engineBackend) Explain(sql string) (string, error) { return b.ExplainAt(sql, b.Snapshot()) }
func (engineBackend) RecencyReport(sess *engine.Session, sql string, cfg report.Config) (*report.Report, error) {
	return report.Run(sess, sql, cfg)
}
func (b engineBackend) Atomic(fn func(*engine.DB) error) error { return fn(b.DB) }
func (engineBackend) N() int                                   { return 1 }
func (engineBackend) SettleVersions()                          {}

// ErrShardedDir reports that a durable directory was asked of a sharded
// database: per-shard epochs under one manifest do not exist yet.
var ErrShardedDir = errors.New("trac: sharded durable directories are not supported yet")

// routerBackend is the router plus the one thing it cannot do yet.
type routerBackend struct{ *shard.Router }

func (routerBackend) CheckpointDir() error { return ErrShardedDir }

// Result is a materialized query result.
type Result = engine.Result

// Report is a query result with its recency and consistency report.
type Report = report.Report

// SourceRecency is one (source, recency timestamp) pair in a report.
type SourceRecency = report.SourceRecency

// Opt configures Open.
type Opt func(*openConfig)

type openConfig struct {
	shards int
}

// WithShards opens the database as n hash-partitioned engine shards behind
// a scatter-gather router. Call PartitionTable after creating a table to
// hash-partition it by its source column; every other table is replicated.
// n = 1 (the default) is the ordinary single-engine database.
func WithShards(n int) Opt {
	return func(c *openConfig) { c.shards = n }
}

// Open creates an empty in-memory TRAC database.
func Open(opts ...Opt) *DB {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards > 1 {
		r, err := shard.New(cfg.shards)
		if err != nil {
			// Unreachable: shard.New only rejects n < 1.
			panic(err)
		}
		return WrapRouter(r)
	}
	return WrapEngine(engine.New())
}

// WrapEngine adopts an existing engine as a public DB handle. It is the
// bridge for callers that build fixtures against the internal API (e.g.
// workload.Build) and then want to serve them through the public one.
func WrapEngine(eng *engine.DB) *DB { return &DB{be: engineBackend{eng}, eng: eng} }

// WrapRouter is WrapEngine for a sharded fixture (e.g.
// workload.BuildSharded): the router becomes a public DB handle.
func WrapRouter(r *shard.Router) *DB {
	return &DB{be: routerBackend{r}, eng: r.Shard(0), router: r}
}

// Engine exposes the underlying engine for advanced integration (bulk
// loading, direct snapshots). For a sharded database this is shard 0; use
// Router for the full shard set.
func (db *DB) Engine() *engine.DB { return db.eng }

// Router exposes the shard router, or nil for an unsharded database.
func (db *DB) Router() *shard.Router { return db.router }

// Shards returns the shard count (1 when unsharded).
func (db *DB) Shards() int { return db.be.N() }

// PartitionTable declares a table hash-partitioned on a column across the
// shards. It must run after the table's DDL and before any rows are loaded.
func (db *DB) PartitionTable(table, column string) error {
	if db.router == nil {
		return fmt.Errorf("trac: PartitionTable requires a database opened with WithShards(n > 1)")
	}
	return db.router.Partition(table, column)
}

// Exec executes any SQL statement (DDL or DML), returning the number of
// affected rows. On a sharded database, DML routes by partition key or
// replicates, and DDL broadcasts to every shard atomically.
func (db *DB) Exec(sql string) (int, error) {
	db.meta.RLock()
	defer db.meta.RUnlock()
	return db.be.Exec(sql)
}

// MustExec executes a statement and panics on error (fixtures, tests).
func (db *DB) MustExec(sql string) int {
	n, err := db.Exec(sql)
	if err != nil {
		panic(err)
	}
	return n
}

// Query runs a SELECT and materializes its result; sharded databases
// scatter it across the pruned shard set under a consistent cut.
func (db *DB) Query(sql string) (*Result, error) {
	db.meta.RLock()
	defer db.meta.RUnlock()
	return db.be.Query(sql)
}

// SetSourceColumn marks a table's data source column (§3.3 of the paper):
// the column identifying which distributed source wrote each tuple. Every
// monitored table needs one for recency reporting to cover it. Like every
// metadata mutation it is applied uniformly to every shard under the
// router's exclusive cut lock, so catalogs (and their versions) stay
// identical across shards.
func (db *DB) SetSourceColumn(table, column string) error {
	db.meta.Lock()
	defer db.meta.Unlock()
	return db.be.Atomic(func(eng *engine.DB) error {
		tbl, err := eng.Catalog().Get(table)
		if err != nil {
			return err
		}
		if err := tbl.Schema.SetSourceColumn(column); err != nil {
			return err
		}
		// Source columns change what the generator emits: invalidate cached plans.
		eng.Catalog().BumpVersion()
		return nil
	})
}

// SetColumnDomain declares the domain of legal values for a column. Domains
// power two things: satisfiability checking (which upgrades recency reports
// from "upper bound" to "guaranteed minimal", Theorems 3/4) and brute-force
// evaluation in tests.
func (db *DB) SetColumnDomain(table, column string, domain Domain) error {
	db.meta.Lock()
	defer db.meta.Unlock()
	return db.be.Atomic(func(eng *engine.DB) error {
		tbl, err := eng.Catalog().Get(table)
		if err != nil {
			return err
		}
		ci := tbl.Schema.ColumnIndex(column)
		if ci < 0 {
			return fmt.Errorf("trac: table %s has no column %q", table, column)
		}
		tbl.Schema.Columns[ci].Domain = domain.d
		// Domains drive satisfiability pruning in generation: invalidate cached
		// plans.
		eng.Catalog().BumpVersion()
		return nil
	})
}

// AddCheck registers a CHECK constraint predicate on an existing table
// (validating existing rows). Beyond write-time enforcement, checks sharpen
// recency reports: the paper's §3.4 appends predicate-form constraints to
// the user query, so potential tuples that could never legally exist stop
// making sources relevant.
func (db *DB) AddCheck(table, exprSQL string) error {
	db.meta.Lock()
	defer db.meta.Unlock()
	return db.be.Atomic(func(eng *engine.DB) error {
		return eng.AddCheck(table, exprSQL)
	})
}

// Domain describes a column's set of legal values.
type Domain struct{ d types.Domain }

// StringDomain is a finite domain of strings.
func StringDomain(values ...string) Domain {
	return Domain{d: types.FiniteStringDomain(values...)}
}

// IntRange is the domain of integers in [min, max].
func IntRange(min, max int64) (Domain, error) {
	d, err := types.IntRangeDomain(min, max)
	return Domain{d: d}, err
}

// Session scopes recency reporting and its temp tables; close it to drop
// them (§4.3: "the temporary table persists until the end of a user
// session").
type Session struct {
	sess *engine.Session
	db   *DB
}

// NewSession opens a session.
func (db *DB) NewSession() *Session {
	return &Session{sess: db.eng.NewSession(), db: db}
}

// Close drops the session's temp tables.
func (s *Session) Close() error { return s.sess.Close() }

// TempTables lists the session's temp tables (newest last).
func (s *Session) TempTables() []string { return s.sess.TempTables() }

// Persist copies a temp table into a permanent one. On a sharded database
// the copy lands on shard 0 and the router's catalog versions are settled so
// later cuts stay coherent.
func (s *Session) Persist(tempName, permanentName string) error {
	s.db.meta.RLock()
	defer s.db.meta.RUnlock()
	if err := s.sess.Persist(tempName, permanentName); err != nil {
		return err
	}
	s.db.be.SettleVersions()
	return nil
}

// Option tunes a recency report.
type Option func(*report.Config)

// Naive switches to the naive method: report every source in the Heartbeat
// table (the baseline the paper compares against).
func Naive() Option {
	return func(c *report.Config) { c.Method = report.Naive }
}

// ZThreshold overrides the |z| cutoff for exceptional-source detection
// (default 3, per the Chebyshev rule).
func ZThreshold(z float64) Option {
	return func(c *report.Config) { c.ZThreshold = z }
}

// MADDetector switches exceptional-source detection to the modified
// z-score (median absolute deviation) method. Prefer it when queries have
// few relevant sources: a single dead source among N values can never
// reach classical |z| = 3 for N < 12, but the MAD statistic is not masked
// by the outlier itself.
func MADDetector() Option {
	return func(c *report.Config) { c.Detector = report.DetectorMAD }
}

// WithoutStats disables exceptional-source detection and descriptive
// statistics.
func WithoutStats() Option {
	return func(c *report.Config) { c.SkipStats = true }
}

// WithoutTempTables skips materializing sys_temp_* tables; the report's
// in-memory slices are still populated.
func WithoutTempTables() Option {
	return func(c *report.Config) { c.SkipTempTables = true }
}

// WithoutPlanCache forces this report to re-parse the user query and
// regenerate the recency query even when a cached plan exists (ablation
// knob; the default path caches and reuses).
func WithoutPlanCache() Option {
	return func(c *report.Config) { c.DisableCache = true }
}

// HeartbeatSchema overrides the Heartbeat table and column names (defaults:
// Heartbeat(sid, recency)).
func HeartbeatSchema(table, sidColumn, recencyColumn string) Option {
	return func(c *report.Config) {
		c.Heartbeat = recgen.Options{
			HeartbeatTable: table, SidColumn: sidColumn, RecencyColumn: recencyColumn,
		}
	}
}

// RecencyReport runs a user query together with its system-generated
// recency query in one snapshot — the Go equivalent of the paper's
// PostgreSQL table function:
//
//	SELECT * FROM recencyReport($$ <user query> $$)
func (s *Session) RecencyReport(sql string, opts ...Option) (*Report, error) {
	var cfg report.Config
	for _, o := range opts {
		o(&cfg)
	}
	s.db.meta.RLock()
	defer s.db.meta.RUnlock()
	return s.db.be.RecencyReport(s.sess, sql, cfg)
}

// PreparedReport is a user query with its recency query generated once,
// executable many times (the paper's "hardcoded recency query" variant;
// also the right shape for dashboards that repeat a monitoring query).
type PreparedReport struct {
	db  *DB
	sql string
	cfg report.Config
	gen *recgen.Generated // as generated at PrepareReport time
}

// PrepareReport parses the query and generates its recency query without
// running either, leaving the pair in the plan cache for Execute. On a
// sharded database, preparation runs against shard 0's catalog, which the
// DDL broadcast keeps identical everywhere.
func (db *DB) PrepareReport(sql string, opts ...Option) (*PreparedReport, error) {
	var cfg report.Config
	for _, o := range opts {
		o(&cfg)
	}
	db.meta.RLock()
	defer db.meta.RUnlock()
	p, _, err := report.PrepareCached(db.eng, sql, cfg)
	if err != nil {
		return nil, err
	}
	return &PreparedReport{db: db, sql: sql, cfg: cfg, gen: p.Generated}, nil
}

// Execute runs the prepared pair at a fresh read point in the session — a
// snapshot, or a consistent cut across all shards. It takes the same path as
// Session.RecencyReport: the pair comes back from the plan cache while the
// catalog is unchanged, and is regenerated after a catalog change (a widened
// domain, a new CHECK, DDL), so a plan made stale never runs.
func (pr *PreparedReport) Execute(s *Session) (*Report, error) {
	pr.db.meta.RLock()
	defer pr.db.meta.RUnlock()
	return pr.db.be.RecencyReport(s.sess, pr.sql, pr.cfg)
}

// RecencySQL returns the recency query text generated at PrepareReport time
// ("" when provably no source is relevant).
func (pr *PreparedReport) RecencySQL() string { return pr.gen.SQL }

// Minimal reports whether the relevant-source set is guaranteed minimal.
func (pr *PreparedReport) Minimal() bool { return pr.gen.Minimal }

// GenerateRecencyQuery derives the recency query for a user query without
// executing anything: it returns the SQL text, whether the computed source
// set is guaranteed minimal (Theorems 3/4) or an upper bound, and the
// reasons minimality was lost.
func (db *DB) GenerateRecencyQuery(userSQL string, opts ...Option) (recencySQL string, minimal bool, reasons []string, err error) {
	pr, err := db.PrepareReport(userSQL, opts...)
	if err != nil {
		return "", false, nil, err
	}
	return pr.gen.SQL, pr.gen.Minimal, pr.gen.Reasons, nil
}

// Explain returns the physical plan notes for a SELECT; sharded databases
// prefix each block with its `shards: k of N, pruned p` scatter note.
func (db *DB) Explain(sql string) (string, error) {
	db.meta.RLock()
	defer db.meta.RUnlock()
	return db.be.Explain(sql)
}

// Heartbeat upserts a source's recency timestamp directly (the fast path a
// loader uses; equivalent to UPDATE-or-INSERT on the Heartbeat table). The
// timestamp string uses the "2006-01-02 15:04:05" layout.
func (db *DB) Heartbeat(sid, timestamp string) error {
	ts, err := types.ParseTime(timestamp)
	if err != nil {
		return err
	}
	db.meta.RLock()
	defer db.meta.RUnlock()
	// Heartbeat is replicated on a sharded database; Atomic upserts on every
	// shard as one broadcast, so a cut never sees a source's recency advanced
	// on some shards only.
	return db.be.Atomic(func(eng *engine.DB) error {
		b := eng.BeginBatch()
		defer b.Abort()
		if err := sniffer.UpsertHeartbeat(b, sid, types.NewTime(ts)); err != nil {
			return err
		}
		return b.Commit()
	})
}

// OpenOption configures OpenDir.
type OpenOption = engine.OpenOption

// WithVerify makes OpenDir eagerly verify every segment file checksum
// instead of deferring detection to first access.
var WithVerify = engine.WithVerify

// WithSyncWAL enables fsync-per-commit (group-committed) durability.
var WithSyncWAL = engine.WithSyncWAL

// OpenDir opens (or initializes) a crash-safe database directory: a
// checkpoint dump with checksummed segment files plus a write-ahead log.
// Recovery — loading the last checkpoint, lazily mapping its segment
// files, and replaying the WAL tail — happens before OpenDir returns.
// Call CheckpointDir periodically to bound the log and Close when done.
func OpenDir(dir string, opts ...OpenOption) (*DB, error) {
	eng, err := engine.OpenDir(dir, opts...)
	if err != nil {
		return nil, err
	}
	return WrapEngine(eng), nil
}

// CheckpointDir atomically writes a new checkpoint epoch (segment files,
// dump, fresh WAL) for a database opened with OpenDir. A sharded database
// returns ErrShardedDir.
func (db *DB) CheckpointDir() error { return db.be.CheckpointDir() }

// Close flushes and closes the write-ahead log of the engine, or of every
// shard, if one is attached.
func (db *DB) Close() error { return db.be.Close() }

// Catalog lists the table names currently registered.
func (db *DB) Catalog() []string { return db.eng.Catalog().Names() }

// InternalCatalog exposes the storage catalog for tooling.
func (db *DB) InternalCatalog() *storage.Catalog { return db.eng.Catalog() }
