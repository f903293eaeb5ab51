// Package report implements the paper's recencyReport facility (§4.3, §5.1):
// it runs a user query together with its system-generated recency query in
// one snapshot, splits exceptionally out-of-date sources from the normal
// ones by z-score, computes the least/most recent source and the "bound of
// inconsistency" (the recency range), and materializes the detail rows into
// session temp tables that remain queryable with ordinary SQL.
package report

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"trac/internal/core/recgen"
	"trac/internal/core/stats"
	"trac/internal/engine"
	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/types"
)

// Method selects how the relevant-source set is computed.
type Method int

// Methods.
const (
	// Focused generates a query-specific recency query (the paper's
	// contribution).
	Focused Method = iota
	// Naive reports every source in the Heartbeat table.
	Naive
)

// String names the method.
func (m Method) String() string {
	if m == Naive {
		return "naive"
	}
	return "focused"
}

// Detector selects the exceptional-source detection method.
type Detector int

// Detectors. The paper uses the classical z-score with the Chebyshev
// justification; MAD (modified z-score) is the robust alternative it
// alludes to ("obviously there are many methods that could be used"), and
// is preferable with few relevant sources, where a single dead source
// cannot push its classical z-score past 3.
const (
	DetectorZScore Detector = iota
	DetectorMAD
)

// Config tunes report generation.
type Config struct {
	Method     Method
	Heartbeat  recgen.Options
	Detector   Detector
	ZThreshold float64 // 0 means the detector's default threshold
	// SkipStats disables exceptional-source detection and the descriptive
	// statistics pass (ablation knob).
	SkipStats bool
	// SkipTempTables disables materializing sys_temp_* tables (ablation
	// knob; the in-memory slices are still populated).
	SkipTempTables bool
	// DisableCache forces Run to re-parse and re-generate the recency plan
	// even when a valid cached Prepared exists (ablation knob; also the
	// semantics of the benchmark's plain "focused" series).
	DisableCache bool
}

// SourceRecency is one (data source, recency timestamp) pair.
type SourceRecency struct {
	Sid     string
	Recency time.Time
}

// Timing breaks down where a report's time went, mirroring the paper's
// three measured components.
type Timing struct {
	// Generate covers user-query parsing and recency-query generation
	// (zero for the Naive method and for pre-prepared runs).
	Generate time.Duration
	// UserQuery is the user query's execution time.
	UserQuery time.Duration
	// RecencyQuery is the recency query's execution time.
	RecencyQuery time.Duration
	// Stats covers reading the (source, recency) pairs off the recency
	// query's answer, outlier detection, descriptive statistics and temp
	// table materialization.
	Stats time.Duration
}

// Report is the full outcome of a recency-reported query.
type Report struct {
	// Result is the user query's result set.
	Result *engine.Result
	// Method that produced RelevantSources.
	Method Method
	// RecencySQL is the executed recency query ("" when Empty).
	RecencySQL string
	// Minimal is the generator's minimality guarantee (always false for
	// Naive unless the query makes every source relevant — we simply
	// report false).
	Minimal bool
	// Reasons explains lost minimality.
	Reasons []string
	// Empty means the relevant set is provably empty.
	Empty bool
	// Normal holds the non-exceptional relevant sources, ascending by
	// recency.
	Normal []SourceRecency
	// Exceptional holds sources whose recency z-score breached the
	// threshold (typically hard-disconnected machines).
	Exceptional []SourceRecency
	// Least/Most are the least and most recent NORMAL sources; zero when
	// there are none.
	Least, Most SourceRecency
	// Bound is the paper's "bound of inconsistency": Most minus Least.
	Bound time.Duration
	// NormalTable/ExceptionalTable name the session temp tables ("" when
	// skipped).
	NormalTable, ExceptionalTable string
	// CachedPlan means the parsed user query and generated recency query
	// came from the engine's plan cache instead of being built fresh.
	CachedPlan bool
	// Timing is the cost breakdown.
	Timing Timing
}

// Prepared is a parsed user query with its generated recency query, ready
// to execute repeatedly. It backs the paper's "hardcoded recency query"
// measurement: preparing once and executing many times isolates the
// generation cost.
type Prepared struct {
	UserStmt  *sqlparser.SelectStmt
	Generated *recgen.Generated
	Config    Config
	userSQL   string        // UserStmt's text as first prepared
	genTime   time.Duration // the paper's generation-cost component
}

// Prepare parses the user query and generates its recency query.
func Prepare(db *engine.DB, userSQL string, cfg Config) (*Prepared, error) {
	start := time.Now()
	sel, err := sqlparser.ParseSelect(userSQL)
	if err != nil {
		return nil, err
	}
	p := &Prepared{UserStmt: sel, Config: cfg, userSQL: userSQL}
	switch cfg.Method {
	case Naive:
		p.Generated = &recgen.Generated{
			Stmt:    recgen.NaiveStmt(cfg.Heartbeat),
			Minimal: false,
			Reasons: []string{"naive method reports every source"},
		}
		p.Generated.SQL = p.Generated.Stmt.SQL()
	default:
		g, err := recgen.Generate(sel, db.Catalog(), cfg.Heartbeat)
		if err != nil {
			return nil, err
		}
		p.Generated = g
	}
	p.genTime = time.Since(start)
	return p, nil
}

// cacheKey fingerprints everything that shapes a Prepared: the normalized
// query text plus every Config field that alters generation. Two configs
// differing only in execution-time knobs (SkipStats, SkipTempTables,
// detection thresholds) still share the generated plan, but we include them
// anyway: Prepared embeds the whole Config, so a cache hit replays it.
func cacheKey(userSQL string, cfg Config) string {
	sql := engine.NormalizeSQL(userSQL)
	hb := cfg.Heartbeat
	b := make([]byte, 0, 64+len(hb.HeartbeatTable)+len(hb.SidColumn)+len(hb.RecencyColumn)+len(sql))
	b = append(b, "report:"...)
	b = strconv.AppendInt(b, int64(cfg.Method), 10)
	// The three names are quoted: a '|' inside one cannot pass for a
	// separator.
	for _, name := range [...]string{hb.HeartbeatTable, hb.SidColumn, hb.RecencyColumn} {
		b = strconv.AppendQuote(append(b, '|'), name)
	}
	b = strconv.AppendInt(append(b, '|'), int64(cfg.Detector), 10)
	b = strconv.AppendFloat(append(b, '|'), cfg.ZThreshold, 'g', -1, 64)
	b = strconv.AppendBool(append(b, '|'), cfg.SkipStats)
	b = strconv.AppendBool(append(b, '|'), cfg.SkipTempTables)
	b = append(append(b, '|'), sql...)
	return string(b)
}

// PrepareCached returns a Prepared for (userSQL, cfg) from the engine's plan
// cache when one exists under the current catalog version, otherwise
// prepares fresh and caches the result. The second return reports a hit.
// Prepared is immutable after construction, so sharing one across calls (and
// goroutines) is safe. With cfg.DisableCache it is Prepare: the cache is
// neither read nor written.
func PrepareCached(db *engine.DB, userSQL string, cfg Config) (*Prepared, bool, error) {
	if cfg.DisableCache {
		p, err := Prepare(db, userSQL, cfg)
		return p, false, err
	}
	key := cacheKey(userSQL, cfg)
	version := db.CatalogVersion()
	if v, ok := db.PlanCache().Get(key, version); ok {
		return v.(*Prepared), true, nil
	}
	p, err := Prepare(db, userSQL, cfg)
	if err != nil {
		return nil, false, err
	}
	db.PlanCache().Put(key, version, p)
	return p, false, nil
}

// ReadPoint runs parsed SELECTs at one pinned, consistent point of the
// database: an engine snapshot, or a cut across every shard of a router. The
// paper's first guiding requirement — the user query and its recency query
// see the same state — is that both go through the SAME ReadPoint. Rows
// answers the user query as a result; Batch answers the recency query
// unboxed, as one batch the caller owns (nil when there are no rows), whose
// (source, recency) columns become the report's pairs without a tuple being
// minted. sql is sel's text (a router keys its scatter-plan cache by it).
type ReadPoint struct {
	Rows  func(sel *sqlparser.SelectStmt, sql string) (*engine.Result, error)
	Batch func(sel *sqlparser.SelectStmt, sql string) (*exec.Batch, error)
}

// snapshotOf pins read points on one engine: each is a fresh MVCC snapshot.
func snapshotOf(db *engine.DB) func() (ReadPoint, error) {
	return func() (ReadPoint, error) {
		snap := db.Snapshot()
		return ReadPoint{
			Rows: func(sel *sqlparser.SelectStmt, _ string) (*engine.Result, error) {
				return db.QueryStmtAt(sel, snap)
			},
			Batch: func(sel *sqlparser.SelectStmt, _ string) (*exec.Batch, error) {
				return db.QueryBatchAt(sel, snap)
			},
		}, nil
	}
}

// Run prepares and executes a recency-reported query on one engine (the
// equivalent of the paper's `SELECT * FROM recencyReport($$...$$)`): RunAt
// with the read point pinned by an engine snapshot.
func Run(sess *engine.Session, userSQL string, cfg Config) (*Report, error) {
	return RunAt(sess, userSQL, cfg, snapshotOf(sess.DB()))
}

// RunAt is the one recency-report path: prepare, pin one read point, run the
// user query and the recency query at it, summarize, materialize. Which
// consistent read point a report runs at is decided here and nowhere else —
// pin is the only thing a single engine and a shard router do differently.
//
// Preparation runs against sess's engine (shard 0 of a router, whose catalog
// the DDL broadcast keeps identical everywhere) and, unless cfg.DisableCache
// is set, goes through that engine's plan cache keyed by catalog version: a
// steady-state repeat skips parsing and generation, and a plan made before a
// catalog bump is never run after it. Temp tables materialize on sess.
func RunAt(sess *engine.Session, userSQL string, cfg Config, pin func() (ReadPoint, error)) (*Report, error) {
	start := time.Now()
	p, hit, err := PrepareCached(sess.DB(), userSQL, cfg)
	if err != nil {
		return nil, err
	}
	genTime := p.genTime
	if hit {
		// On a hit the report's generation cost is just the lookup.
		genTime = time.Since(start)
	}
	rep, err := p.execute(sess, pin)
	if err != nil {
		return nil, err
	}
	rep.Timing.Generate = genTime
	rep.CachedPlan = hit
	return rep, nil
}

// Execute runs the prepared pair as generated, under one engine snapshot,
// with no catalog-version check: the raw "hardcoded recency query" primitive
// the paper's Figure 1/2 series measures. Callers that outlive a catalog
// change go through Run, which re-prepares.
func (p *Prepared) Execute(sess *engine.Session) (*Report, error) {
	return p.execute(sess, snapshotOf(sess.DB()))
}

// execute runs the user and recency queries at one read point and assembles
// the report.
func (p *Prepared) execute(sess *engine.Session, pin func() (ReadPoint, error)) (*Report, error) {
	cfg := p.Config
	rep := &Report{
		Method:  cfg.Method,
		Minimal: p.Generated.Minimal,
		Reasons: p.Generated.Reasons,
		Empty:   p.Generated.Empty,
	}
	if p.Generated.Stmt != nil {
		rep.RecencySQL = p.Generated.SQL
	}

	// One read point for both queries: the paper's first guiding requirement.
	at, err := pin()
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	res, err := at.Rows(p.UserStmt, p.userSQL)
	if err != nil {
		return nil, err
	}
	rep.Result = res
	rep.Timing.UserQuery = time.Since(t0)

	var answer *exec.Batch
	if p.Generated.Stmt != nil {
		t1 := time.Now()
		answer, err = at.Batch(p.Generated.Stmt, p.Generated.SQL)
		if err != nil {
			return nil, fmt.Errorf("report: recency query failed: %w", err)
		}
		rep.Timing.RecencyQuery = time.Since(t1)
	}

	t2 := time.Now()
	summarizeBatch(rep, answer, cfg)
	exec.PutBatch(answer)
	if !cfg.SkipTempTables {
		if err := Materialize(sess, rep); err != nil {
			return nil, err
		}
	}
	rep.Timing.Stats = time.Since(t2)
	return rep, nil
}

// Summarize classifies the (sid, recency) pairs into normal and exceptional
// sources and fills the report's least/most/bound summary. Exported (like
// Materialize) for the benchmark's staged replay of the report path; a
// report runs the same core straight off its recency query's answer
// (summarizeBatch).
func Summarize(rep *Report, pairs []SourceRecency, cfg Config) {
	ks := make([]key, len(pairs), 2*len(pairs))
	for i, sr := range pairs {
		ks[i] = newKey(sr.Recency.UnixNano(), sr.Sid, int32(i))
	}
	summarize(rep, ks, cfg,
		func(i int32) string { return pairs[i].Sid },
		func(k key) SourceRecency { return pairs[k.i] })
}

// summarizeBatch is Summarize over the (sid, recency) pairs of the first two
// columns of a recency query's answer (nil when it has no rows): the keys
// are read straight off the vectors, a tuple with a NULL in either column
// carries no recency and is skipped, and each pair is made once, in sorted
// order. A generic vector is read through Value.
func summarizeBatch(rep *Report, b *exec.Batch, cfg Config) {
	if b == nil || len(b.Cols) < 2 {
		summarize(rep, nil, cfg, nil, nil)
		return
	}
	sid, rec := b.Cols[0], b.Cols[1]
	sidAt := func(pos int32) string { return sid.Value(int(pos)).String() }
	if sid.Pure && sid.Kind == types.KindString {
		sidAt = func(pos int32) string { return sid.Str[pos] }
	}
	nsAt := func(pos int) int64 { return rec.Value(pos).Time().UnixNano() }
	if rec.Pure && rec.Kind == types.KindTime {
		nsAt = func(pos int) int64 { return rec.I64[pos] }
	}
	ks := make([]key, 0, 2*b.Len())
	for _, pos := range b.Sel {
		if isNull(sid, pos) || isNull(rec, pos) {
			continue
		}
		ks = append(ks, newKey(nsAt(pos), sidAt(int32(pos)), int32(pos)))
	}
	summarize(rep, ks, cfg, sidAt, func(k key) SourceRecency {
		return SourceRecency{Sid: sidAt(k.i), Recency: time.Unix(0, k.nanos())}
	})
}

// isNull reports whether slot pos of cv is NULL.
func isNull(cv *storage.ColVec, pos int) bool {
	if cv.Pure {
		return cv.Nulls[pos]
	}
	return cv.Vals[pos].IsNull()
}

// summarize is the one summary core. ks holds one key per pair, i naming the
// pair to sid (its sid) and pair (the pair itself), and has room for as many
// keys again past its length, the radix sort's buffer. It sorts small keys —
// integer nanoseconds, the first bytes of the sid that breaks ties, the
// pair's position — not the 40-byte pairs, then makes or moves each pair
// once, in sorted order. A byte-wise radix sort puts the keys in (recency,
// sid prefix) order: thousands of keys that differ in a handful of bytes.
// Sources polled together share a timestamp, so ties are the rule; only sids
// that agree in their first eight bytes are left to a comparison sort.
func summarize(rep *Report, ks []key, cfg Config, sid func(int32) string, pair func(key) SourceRecency) {
	if len(ks) <= smallSort {
		// A point report carries a pair or two; sixteen radix passes that
		// each clear 256 counters cost more than comparing them.
		slices.SortFunc(ks, func(a, b key) int { return cmp.Or(cmp.Compare(a.ns, b.ns), cmp.Compare(a.pre, b.pre)) })
	} else {
		ks = radixSort(ks, ks[len(ks):2*len(ks)])
	}
	for lo := 0; lo < len(ks); {
		hi := lo + 1
		for hi < len(ks) && ks[hi].ns == ks[lo].ns && ks[hi].pre == ks[lo].pre {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(ks[lo:hi], func(a, b key) int { return strings.Compare(sid(a.i), sid(b.i)) })
		}
		lo = hi
	}
	var pairs []SourceRecency
	var xs []float64
	if len(ks) > 0 {
		pairs = make([]SourceRecency, len(ks))
		for j, k := range ks {
			pairs[j] = pair(k)
		}
	}
	if !cfg.SkipStats {
		xs = make([]float64, len(ks))
		for j, k := range ks {
			xs[j] = float64(k.nanos()) / float64(time.Second)
		}
	}
	if cfg.SkipStats {
		rep.Normal = pairs
	} else {
		var normalIdx, excIdx []int
		threshold := cfg.ZThreshold
		if cfg.Detector == DetectorMAD {
			normalIdx, excIdx = stats.OutliersMAD(xs, threshold)
		} else {
			if threshold == 0 {
				threshold = stats.DefaultZThreshold
			}
			normalIdx, excIdx = stats.Outliers(xs, threshold)
		}
		// The few exceptional pairs are copied out; the normal ones, whose
		// positions ascend, close ranks within pairs itself.
		rep.Exceptional = pick(pairs, excIdx)
		normal := pairs[:0]
		for _, i := range normalIdx {
			normal = append(normal, pairs[i])
		}
		if len(normal) > 0 {
			rep.Normal = normal
		}
	}
	if len(rep.Normal) > 0 {
		rep.Least = rep.Normal[0]
		rep.Most = rep.Normal[len(rep.Normal)-1]
		rep.Bound = rep.Most.Recency.Sub(rep.Least.Recency)
	}
}

// smallSort is the pair count up to which Summarize sorts its keys by
// comparison instead of by radix.
const smallSort = 32

// key is one pair under sort: its recency in nanoseconds with the sign bit
// flipped (so that unsigned order is time order), the first eight bytes of
// its sid, big-endian, and its position.
type key struct {
	ns, pre uint64
	i       int32
}

// newKey is the key of the pair (sid, recency ns) at position i.
func newKey(ns int64, sid string, i int32) key {
	var pre uint64
	for b := 0; b < 8 && b < len(sid); b++ {
		pre |= uint64(sid[b]) << (56 - 8*b)
	}
	return key{uint64(ns) ^ 1<<63, pre, i}
}

// nanos is the key's recency in Unix nanoseconds.
func (k key) nanos() int64 { return int64(k.ns ^ 1<<63) }

// radixSort sorts ks by (ns, pre), stably, least significant byte first,
// skipping the bytes every key shares; it returns whichever of ks and tmp
// (same length) holds the result. The sixteen byte histograms are filled in
// one read of the keys: a pass permutes the keys but leaves each byte's
// histogram as it was.
func radixSort(ks, tmp []key) []key {
	var counts [16][256]int
	for i := range ks {
		for b := 0; b < 8; b++ {
			counts[b][byte(ks[i].pre>>(8*b))]++
			counts[8+b][byte(ks[i].ns>>(8*b))]++
		}
	}
	for pass := range counts {
		byNS, shift := pass >= 8, uint(8*(pass%8))
		count := &counts[pass]
		if slices.Contains(count[:], len(ks)) {
			continue // every key has the same byte here (or there are none)
		}
		at := 0
		for b, n := range count {
			count[b], at = at, at+n
		}
		for i := range ks {
			w := ks[i].pre
			if byNS {
				w = ks[i].ns
			}
			b := byte(w >> shift)
			tmp[count[b]] = ks[i]
			count[b]++
		}
		ks, tmp = tmp, ks
	}
	return ks
}

// pick gathers pairs[idx...] into one exactly-sized slice (nil when empty).
func pick(pairs []SourceRecency, idx []int) []SourceRecency {
	if len(idx) == 0 {
		return nil
	}
	out := make([]SourceRecency, len(idx))
	for k, i := range idx {
		out[k] = pairs[i]
	}
	return out
}

// Materialize creates the session temp tables (sys_temp_e, sys_temp_a) for a
// summarized report. Their rows are made from the report's pairs when a
// table is first read (engine.Session.CreateTempTable), not here: a report
// nobody queries further pays only for two names in the catalog. The tables
// hold what rep.Exceptional and rep.Normal hold at that first read.
func Materialize(sess *engine.Session, rep *Report) error {
	cols := []storage.Column{
		{Name: "sid", Kind: types.KindString},
		{Name: "recency", Kind: types.KindTime},
	}
	var err error
	rep.ExceptionalTable, err = sess.CreateTempTable("sys_temp_e", cols, tuplesOf(rep.Exceptional))
	if err != nil {
		return err
	}
	rep.NormalTable, err = sess.CreateTempTable("sys_temp_a", cols, tuplesOf(rep.Normal))
	return err
}

// tuplesOf returns a temp table's filler: the (sid, recency) tuples of srs,
// carved from one arena.
func tuplesOf(srs []SourceRecency) func() [][]types.Value {
	return func() [][]types.Value {
		arena := make([]types.Value, 2*len(srs))
		rows := make([][]types.Value, len(srs))
		for i, sr := range srs {
			rows[i], arena = arena[:2:2], arena[2:]
			rows[i][0], rows[i][1] = types.NewString(sr.Sid), types.NewTime(sr.Recency)
		}
		return rows
	}
}

// Render produces the paper's NOTICE-style report text followed by the
// formatted user result.
func (r *Report) Render() string {
	var sb strings.Builder
	if r.Empty {
		sb.WriteString("NOTICE: No data source is relevant to this query (its predicates are unsatisfiable)\n")
	} else {
		if r.ExceptionalTable != "" {
			fmt.Fprintf(&sb, "NOTICE: Exceptional relevant data sources and timestamps are in the temporary table: %s\n",
				r.ExceptionalTable)
		} else if len(r.Exceptional) > 0 {
			fmt.Fprintf(&sb, "NOTICE: %d exceptional relevant data source(s) detected\n", len(r.Exceptional))
		}
		if len(r.Normal) > 0 {
			fmt.Fprintf(&sb, "NOTICE: The least recent data source: %s, %s\n",
				r.Least.Sid, r.Least.Recency.UTC().Format(types.TimeLayout))
			fmt.Fprintf(&sb, "NOTICE: The most recent data source: %s, %s\n",
				r.Most.Sid, r.Most.Recency.UTC().Format(types.TimeLayout))
			fmt.Fprintf(&sb, "NOTICE: Bound of inconsistency: %s\n", formatBound(r.Bound))
		} else {
			sb.WriteString("NOTICE: No normal relevant data sources\n")
		}
		if r.NormalTable != "" {
			fmt.Fprintf(&sb, "NOTICE: All ''normal'' relevant data sources and timestamps are in the temporary table: %s\n",
				r.NormalTable)
		}
		if !r.Minimal && r.Method == Focused {
			sb.WriteString("NOTICE: The relevant source set is an upper bound (not guaranteed minimal)\n")
		}
	}
	sb.WriteString("\n")
	sb.WriteString(r.Result.Format())
	return sb.String()
}

// formatBound renders a duration as HH:MM:SS, as in the paper's transcript
// ("Bound of inconsistency: 00:20:00").
func formatBound(d time.Duration) string {
	if d < 0 {
		d = -d
	}
	d = d.Round(time.Second)
	h := d / time.Hour
	m := (d % time.Hour) / time.Minute
	s := (d % time.Minute) / time.Second
	return fmt.Sprintf("%02d:%02d:%02d", h, m, s)
}
