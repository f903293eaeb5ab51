package sniffer

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"trac/internal/engine"
	"trac/internal/gridsim"
	"trac/internal/sqlparser"
	"trac/internal/types"
)

// ErrCircuitOpen is returned by Poll while a source is quarantined by its
// circuit breaker. The source's Heartbeat row is untouched, so recency
// reports keep showing it with its last-known recency instead of dropping
// it.
var ErrCircuitOpen = errors.New("sniffer: circuit open, source quarantined")

// Sniffer tails one data source's log and loads it into the database.
//
// It is built for the paper's failure model — the source is asynchronous
// and uncontrollable — so every poll read is retried with backoff, a
// persistently failing source trips a per-source circuit breaker, and the
// log offset is persisted into the SnifferState table inside the same
// transaction as the applied events, which makes resume after a crash
// exactly-once.
type Sniffer struct {
	db     *engine.DB
	source string
	log    gridsim.Log

	mu       sync.Mutex
	offset   int
	paused   bool
	lastTS   time.Time
	applied  int
	restored bool

	// BatchSize caps how many events one Poll applies (0 = unlimited).
	// Smaller batches make a sniffer "slower", widening the inconsistency
	// window between sources — the knob the experiments turn.
	BatchSize int
	// Retry tunes transient-read retry within one Poll (zero value =
	// defaults).
	Retry RetryPolicy

	breaker *Breaker
	rng     *rand.Rand
	sleep   func(time.Duration)

	retries     int
	dupsDropped int
	lastErr     error

	// commitFn overrides batch commit in tests to inject commit-time
	// failures (nil = Batch.Commit).
	commitFn func(*engine.Batch) error
}

// New creates a sniffer for one source.
func New(db *engine.DB, source string, log gridsim.Log) *Sniffer {
	h := fnv.New64a()
	h.Write([]byte(source))
	return &Sniffer{
		db:      db,
		source:  source,
		log:     log,
		breaker: NewBreaker(0, 0),
		rng:     rand.New(rand.NewSource(int64(h.Sum64()))),
		sleep:   time.Sleep,
	}
}

// Source returns the data source id.
func (s *Sniffer) Source() string { return s.source }

// Breaker exposes the per-source circuit breaker for tuning (threshold,
// cooldown) and inspection.
func (s *Sniffer) Breaker() *Breaker { return s.breaker }

// Applied returns the number of events loaded so far (including, after a
// restore, events applied by a previous incarnation of this sniffer).
func (s *Sniffer) Applied() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Lag returns how many log records have not yet been loaded.
func (s *Sniffer) Lag() (int, error) {
	n, err := s.log.Len()
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return n - s.offset, nil
}

// Pause makes Poll a no-op: the loader side of a failure (the source may
// keep logging, but nothing reaches the database, so its recency goes
// stale).
func (s *Sniffer) Pause() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

// Resume re-enables loading.
func (s *Sniffer) Resume() {
	s.mu.Lock()
	s.paused = false
	s.mu.Unlock()
}

// Paused reports the pause state.
func (s *Sniffer) Paused() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.paused
}

// Restore loads the sniffer's durable offset state from the SnifferState
// table immediately. Poll does this lazily on first use, so calling Restore
// is only needed to observe the recovered offset before polling.
func (s *Sniffer) Restore() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restoreLocked()
}

// restoreLocked recovers offset/applied/lastTS from SnifferState. Missing
// table (non-durable deployments) or missing row (first run) leave the
// zero state.
func (s *Sniffer) restoreLocked() error {
	s.restored = true
	if !s.durable() {
		return nil
	}
	res, err := s.db.Query(`SELECT log_offset, applied, last_ts FROM ` + SnifferStateTable +
		` WHERE sid = ` + types.NewString(s.source).SQL())
	if err != nil {
		return fmt.Errorf("sniffer: restore %s: %w", s.source, err)
	}
	if len(res.Rows) == 0 {
		return nil
	}
	row := res.Rows[0]
	s.offset = int(row[0].Int())
	s.applied = int(row[1].Int())
	if !row[2].IsNull() {
		s.lastTS = row[2].Time()
	}
	return nil
}

// durable reports whether the SnifferState table exists (deployments that
// never installed it just lose resume-on-restart, nothing else).
func (s *Sniffer) durable() bool {
	_, err := s.db.Catalog().Get(SnifferStateTable)
	return err == nil
}

// Poll reads new log records and applies them (plus the Heartbeat advance
// and the durable offset update) in one atomic batch. It returns the number
// of events applied.
//
// Transient read failures are retried per s.Retry; a poll that still fails
// counts against the circuit breaker, and while the breaker is open Poll
// fails fast with ErrCircuitOpen.
func (s *Sniffer) Poll() (int, error) { return s.PollContext(context.Background()) }

// PollContext is Poll with cancellation: a canceled context aborts retry
// backoff waits between read attempts and returns ctx.Err(). Cancellation
// never interrupts a batch mid-commit — the atomic apply is all-or-nothing
// regardless.
func (s *Sniffer) PollContext(ctx context.Context) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.paused {
		return 0, nil
	}
	if !s.restored {
		if err := s.restoreLocked(); err != nil {
			s.lastErr = err
			return 0, err
		}
	}
	if !s.breaker.Allow() {
		err := fmt.Errorf("%w: %s", ErrCircuitOpen, s.source)
		s.lastErr = err
		return 0, err
	}
	n, err := s.pollLocked(ctx)
	if err != nil {
		s.breaker.Failure()
		s.lastErr = err
		return n, err
	}
	s.breaker.Success()
	s.lastErr = nil
	return n, nil
}

func (s *Sniffer) pollLocked(ctx context.Context) (int, error) {
	events, next, err := s.readWithRetry(ctx, s.offset)
	if err != nil {
		return 0, err
	}
	// A faulty reader can deliver a record twice within one batch. The
	// log's next-offset is authoritative for how many unique records exist,
	// so any surplus is duplication: drop adjacent repeats, exactly the
	// surplus count.
	if unique := next - s.offset; unique < len(events) {
		events = s.dropDuplicates(events, len(events)-unique)
		if len(events) != unique {
			return 0, fmt.Errorf("sniffer: %s: log delivered %d records for %d offsets",
				s.source, len(events), unique)
		}
	}
	if s.BatchSize > 0 && len(events) > s.BatchSize {
		events = events[:s.BatchSize]
		next = s.offset + s.BatchSize
	}
	if len(events) == 0 {
		return 0, nil
	}

	b := s.db.BeginBatch()
	defer b.Abort() // no-op after successful commit
	var maxTS time.Time
	for _, e := range events {
		if e.Machine != s.source {
			return 0, fmt.Errorf("sniffer: %s read foreign event from %s", s.source, e.Machine)
		}
		if err := applyEvent(b, e); err != nil {
			return 0, err
		}
		if e.Time.After(maxTS) {
			maxTS = e.Time
		}
	}
	// Maintain the recency timestamp: the most recent event reported by
	// this source (§3.1's simple protocol; heartbeat records advance it
	// even when there is nothing to report).
	newLast := s.lastTS
	if maxTS.After(newLast) {
		newLast = maxTS
		if err := UpsertHeartbeat(b, s.source, types.NewTime(maxTS)); err != nil {
			return 0, err
		}
	}
	newApplied := s.applied + len(events)
	// Exactly-once resume: the offset advance commits atomically with the
	// events it covers, so a crash between commit and the in-memory update
	// below cannot double-apply on restart.
	if s.durable() {
		if err := persistState(b, s.source, next, newApplied, newLast); err != nil {
			return 0, err
		}
	}
	if err := s.commit(b); err != nil {
		// The transaction may have landed even though Commit errored (a WAL
		// append failure happens after the engine commit). Resync so the
		// next poll neither skips nor re-applies events.
		s.resyncLocked(err, next, newApplied, newLast)
		return 0, err
	}
	s.offset = next
	s.applied = newApplied
	s.lastTS = newLast
	return len(events), nil
}

// readWithRetry reads the log, retrying transient failures with jittered
// exponential backoff. The backoff wait is context-aware: cancellation cuts
// the retry loop short instead of sleeping through it.
func (s *Sniffer) readWithRetry(ctx context.Context, offset int) ([]gridsim.Event, int, error) {
	p := s.Retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if attempt > 0 {
			s.retries++
			if err := s.sleepCtx(ctx, p.backoff(attempt-1, s.rng)); err != nil {
				return nil, 0, err
			}
		}
		events, next, err := s.log.ReadFrom(offset)
		if err == nil {
			return events, next, nil
		}
		lastErr = err
		if !isTransient(err) {
			return nil, 0, err
		}
	}
	return nil, 0, fmt.Errorf("sniffer: %s: read failed after %d attempts: %w",
		s.source, p.MaxAttempts, lastErr)
}

// sleepCtx waits for d or for cancellation, whichever comes first. A
// context that can never be canceled takes the injected sleeper (real
// time.Sleep in production, a fake in tests), preserving the pre-context
// behaviour of Poll().
func (s *Sniffer) sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		s.sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// dropDuplicates removes up to surplus adjacent-equal records, counting
// them in the health counters.
func (s *Sniffer) dropDuplicates(events []gridsim.Event, surplus int) []gridsim.Event {
	out := make([]gridsim.Event, 0, len(events))
	for i, e := range events {
		if surplus > 0 && i > 0 && e == events[i-1] {
			surplus--
			s.dupsDropped++
			continue
		}
		out = append(out, e)
	}
	return out
}

// commit commits the batch (or runs the test-injected commit).
func (s *Sniffer) commit(b *engine.Batch) error {
	if s.commitFn != nil {
		return s.commitFn(b)
	}
	return b.Commit()
}

// resyncLocked reconciles in-memory state after a failed commit. A
// post-commit WAL failure (engine.ErrWALAppend) means the data IS visible:
// adopt the new state. Any other failure leaves the database unchanged, but
// when durable state exists we re-read it as ground truth anyway.
func (s *Sniffer) resyncLocked(cause error, next, applied int, last time.Time) {
	if errors.Is(cause, engine.ErrWALAppend) {
		s.offset = next
		s.applied = applied
		s.lastTS = last
		return
	}
	if !s.durable() {
		return
	}
	res, err := s.db.Query(`SELECT log_offset, applied, last_ts FROM ` + SnifferStateTable +
		` WHERE sid = ` + types.NewString(s.source).SQL())
	if err != nil || len(res.Rows) == 0 {
		return
	}
	row := res.Rows[0]
	if off := int(row[0].Int()); off > s.offset {
		s.offset = off
		s.applied = int(row[1].Int())
		if !row[2].IsNull() {
			s.lastTS = row[2].Time()
		}
	}
}

// The loader builds its writes as statements: nothing is quoted or parsed
// on ingest, and the WAL logs each one's SQL(), the text it would have been
// parsed from.
func col(name string) *sqlparser.ColumnRef { return &sqlparser.ColumnRef{Column: name} }
func lit(v types.Value) *sqlparser.Literal { return &sqlparser.Literal{Val: v} }
func str(s string) *sqlparser.Literal      { return lit(types.NewString(s)) }

// eq is `name = v`.
func eq(name string, v sqlparser.Expr) sqlparser.Expr {
	return &sqlparser.Comparison{Op: sqlparser.CmpEq, Left: col(name), Right: v}
}

// insert runs `INSERT INTO table [(cols)] VALUES (values)` inside b.
func insert(b *engine.Batch, table string, cols []string, values ...sqlparser.Expr) error {
	_, err := b.ExecStmt(&sqlparser.InsertStmt{Table: table, Columns: cols, Rows: [][]sqlparser.Expr{values}})
	return err
}

// upsert runs `UPDATE table SET set WHERE key = id` inside b and, when no
// row matched, `INSERT INTO table (cols) VALUES (values)`.
func upsert(b *engine.Batch, table, key string, id sqlparser.Expr, set []sqlparser.Assignment, cols []string, values ...sqlparser.Expr) error {
	n, err := b.ExecStmt(&sqlparser.UpdateStmt{Table: table, Set: set, Where: eq(key, id)})
	if err != nil || n > 0 {
		return err
	}
	return insert(b, table, cols, values...)
}

// persistState upserts the sniffer's durable resume point inside the batch.
func persistState(b *engine.Batch, sid string, offset, applied int, last time.Time) error {
	lastV := types.Null
	if !last.IsZero() {
		lastV = types.NewTime(last)
	}
	off, app, ts := lit(types.NewInt(int64(offset))), lit(types.NewInt(int64(applied))), lit(lastV)
	set := []sqlparser.Assignment{
		{Column: "log_offset", Value: off}, {Column: "applied", Value: app}, {Column: "last_ts", Value: ts}}
	return upsert(b, SnifferStateTable, "sid", str(sid), set,
		[]string{"sid", "log_offset", "applied", "last_ts"}, str(sid), off, app, ts)
}

// applyEvent translates one log record into relational updates.
func applyEvent(b *engine.Batch, e gridsim.Event) error {
	src, ts, job := str(e.Machine), lit(types.NewTime(e.Time)), str(e.JobID)
	logJob := func(event string) error {
		return insert(b, JobLogTable, nil, src, job, str(event), ts)
	}
	switch e.Type {
	case gridsim.StatusEvent:
		// Activity is current-state: replace this machine's row.
		if _, err := b.ExecStmt(&sqlparser.DeleteStmt{Table: ActivityTable, Where: eq("mach_id", src)}); err != nil {
			return err
		}
		return insert(b, ActivityTable, nil, src, str(e.Value), ts)
	case gridsim.NeighborEvent:
		return insert(b, RoutingTable, nil, src, str(e.Neighbor), ts)
	case gridsim.SubmitEvent:
		if err := insert(b, SchedulerTable, nil, src, job, lit(types.Null), str(e.User)); err != nil {
			return err
		}
		return logJob("submit")
	case gridsim.RouteEvent:
		if _, err := b.ExecStmt(&sqlparser.UpdateStmt{Table: SchedulerTable,
			Set:   []sqlparser.Assignment{{Column: "remoteMachineId", Value: str(e.Remote)}},
			Where: sqlparser.AndAll(eq("schedMachineId", src), eq("jobId", job))}); err != nil {
			return err
		}
		return logJob("route")
	case gridsim.StartEvent:
		if err := insert(b, RunningTable, nil, src, job); err != nil {
			return err
		}
		return logJob("start")
	case gridsim.FinishEvent:
		if _, err := b.ExecStmt(&sqlparser.DeleteStmt{Table: RunningTable,
			Where: sqlparser.AndAll(eq("runningMachineId", src), eq("jobId", job))}); err != nil {
			return err
		}
		return logJob("finish")
	case gridsim.HeartbeatEvent:
		return nil // only advances recency
	default:
		return fmt.Errorf("sniffer: unknown event type %q", e.Type)
	}
}

// UpsertHeartbeat sets source sid's Heartbeat recency inside b, inserting
// its row when it has none.
func UpsertHeartbeat(b *engine.Batch, sid string, recency types.Value) error {
	return upsertHeartbeat(b, sid, lit(recency), recency)
}

// upsertHeartbeat sets sid's Heartbeat recency to set or, when sid has no
// row, inserts one with recency.
func upsertHeartbeat(b *engine.Batch, sid string, set sqlparser.Expr, recency types.Value) error {
	return upsert(b, HeartbeatTable, "sid", str(sid),
		[]sqlparser.Assignment{{Column: "recency", Value: set}},
		[]string{"sid", "recency"}, str(sid), lit(recency))
}

// Fleet manages one sniffer per machine of a simulated grid.
type Fleet struct {
	Sniffers []*Sniffer
	// StaleAfter marks an otherwise-healthy source stale in Health() when
	// its recency lags the freshest source by more than this (0 disables).
	StaleAfter time.Duration
	// DrainStallLimit bounds how many consecutive zero-progress error
	// rounds DrainAll tolerates before giving up (0 = default 50).
	DrainStallLimit int
}

// NewFleet builds sniffers for every machine of the simulator.
func NewFleet(db *engine.DB, sim *gridsim.Simulator) *Fleet {
	f := &Fleet{}
	for _, m := range sim.Machines() {
		f.Sniffers = append(f.Sniffers, New(db, m.Name, m.Log))
	}
	return f
}

// PollAll polls every sniffer once, concurrently. It always returns the
// total number of events applied across the whole fleet; errors from
// individual sniffers are aggregated with errors.Join, so one failing
// source never hides the others' progress or errors.
func (f *Fleet) PollAll() (int, error) { return f.PollAllContext(context.Background()) }

// PollAllContext is PollAll with cancellation, passed through to each
// sniffer's retry backoff.
func (f *Fleet) PollAllContext(ctx context.Context) (int, error) {
	var wg sync.WaitGroup
	counts := make([]int, len(f.Sniffers))
	errs := make([]error, len(f.Sniffers))
	for i, s := range f.Sniffers {
		wg.Add(1)
		go func(i int, s *Sniffer) {
			defer wg.Done()
			counts[i], errs[i] = s.PollContext(ctx)
		}(i, s)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, errors.Join(errs...)
}

// RestoreAll loads every sniffer's durable resume point from the
// SnifferState table — the fleet half of crash recovery: after
// engine.OpenDir rebuilds the database, RestoreAll repositions each sniffer
// at the exact log offset its last committed batch covered, so ingestion
// resumes exactly-once with no events lost or re-applied.
func (f *Fleet) RestoreAll() error {
	var errs []error
	for _, s := range f.Sniffers {
		errs = append(errs, s.Restore())
	}
	return errors.Join(errs...)
}

// Get returns the sniffer for a source name, or nil.
func (f *Fleet) Get(source string) *Sniffer {
	for _, s := range f.Sniffers {
		if s.source == source {
			return s
		}
	}
	return nil
}

// DrainAll polls until the database has caught up with every log. Transient
// failures do not abort the drain: as long as some sniffer makes progress
// the fleet keeps polling, and zero-progress rounds with errors are retried
// (with a short pause, letting backoff and breaker cooldowns do their work)
// up to DrainStallLimit consecutive times before the aggregated error is
// returned.
func (f *Fleet) DrainAll() error { return f.DrainAllContext(context.Background()) }

// DrainAllContext is DrainAll with cancellation: the drain stops at the next
// round boundary (or stall pause) once ctx is canceled and returns ctx.Err().
func (f *Fleet) DrainAllContext(ctx context.Context) error {
	limit := f.DrainStallLimit
	if limit <= 0 {
		limit = 50
	}
	stalled := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := f.PollAllContext(ctx)
		if n > 0 {
			stalled = 0
			continue
		}
		if err == nil {
			return nil
		}
		stalled++
		if stalled >= limit {
			return err
		}
		// Stall pause, cut short by cancellation. With a Background context
		// this degenerates to a plain 2ms timer sleep.
		t := time.NewTimer(2 * time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}
