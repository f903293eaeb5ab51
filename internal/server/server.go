package server

import (
	"bufio"
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"trac"
	"trac/internal/core/report"
	"trac/internal/engine"
)

// Config parameterizes a Server.
type Config struct {
	// DB is the database being served (embedded or sharded). Required.
	DB *trac.DB
	// Token is the shared-secret auth token; "" disables authentication.
	Token string
	// Name is the server string sent in Welcome frames.
	Name string
	// SessionQuota bounds one session's in-flight (admitted but
	// unanswered) requests; excess pipelined frames get an immediate Busy.
	// 0 selects 8.
	SessionQuota int
	// HandshakeTimeout bounds how long a fresh connection may take to send
	// Hello; 0 selects 5s.
	HandshakeTimeout time.Duration
	// Sched sizes the admission layer.
	Sched SchedConfig
	// Logf, when non-nil, receives serving diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "trac-server"
	}
	if c.SessionQuota <= 0 {
		c.SessionQuota = 8
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	return c
}

// Stats is a serving snapshot.
type Stats struct {
	Sched       SchedStats
	Conns       int    // live connections
	Accepted    uint64 // connections accepted since start
	AuthFailed  uint64
	ShedQuota   uint64 // requests refused by a session's in-flight quota
	TempsLeaked int    // residual sys_temp_* tables (0 when cleanup is healthy)
}

// Server serves the TRAC wire protocol over a listener, mapping each
// authenticated connection onto one engine session and pushing every
// request through the admission scheduler.
type Server struct {
	cfg   Config
	sched *Scheduler

	mu       sync.Mutex
	listener net.Listener
	conns    map[*conn]struct{}
	draining bool

	connWG     sync.WaitGroup
	accepted   atomic.Uint64
	authFailed atomic.Uint64
	shedQuota  atomic.Uint64
}

// New builds a Server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	cfg = cfg.withDefaults()
	return &Server{
		cfg:   cfg,
		sched: NewScheduler(cfg.Sched),
		conns: make(map[*conn]struct{}),
	}, nil
}

// Scheduler exposes the admission layer (stats, sizing).
func (s *Server) Scheduler() *Scheduler { return s.sched }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Addr returns the listener address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Serve accepts connections on l until Shutdown closes it. It returns nil
// after a clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return ErrDraining
	}
	s.listener = l
	s.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.accepted.Add(1)
		c := &conn{srv: s, nc: nc}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown gracefully drains the server: stop accepting, let each
// connection finish the requests already admitted, refuse new work with
// Busy(draining), then close every connection and the scheduler. In-flight
// sessions are closed (temp tables reclaimed) as their connections exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	l := s.listener
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if l != nil {
		l.Close()
	}
	// Unblock every reader parked in ReadFrame; each reader then stops
	// taking requests, and its writer flushes the responses still in
	// flight before the connection closes.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}
	// Run everything already admitted.
	drainErr := s.sched.Drain(ctx)

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.connWG.Wait()
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Force-close stragglers; their readers exit on the dead conn.
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return drainErr
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	n := len(s.conns)
	s.mu.Unlock()
	return Stats{
		Sched:      s.sched.Stats(),
		Conns:      n,
		Accepted:   s.accepted.Load(),
		AuthFailed: s.authFailed.Load(),
		ShedQuota:  s.shedQuota.Load(),
	}
}

// ---------------------------------------------------------------------------
// Connection handling.

// pending is one request's slot in the ordered response stream. The
// executing task resolves it by sending the encoded response; the writer
// drains pendings in request order, so pipelined clients see responses in
// the order they asked.
type pending struct {
	ch chan response
}

type response struct {
	ft      FrameType
	payload []byte
}

// conn is one client connection: a reader (request admission), a writer
// (ordered responses), one engine session, and the session's prepared
// statements.
type conn struct {
	srv *Server
	nc  net.Conn

	sess *trac.Session

	inflight atomic.Int64 // admitted-but-unanswered requests (quota)

	stmtMu sync.Mutex
	stmts  map[uint64]*trac.PreparedReport
	nextID uint64
}

func (c *conn) serve() {
	defer c.srv.connWG.Done()
	defer func() {
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
	}()
	defer c.nc.Close()

	if err := c.handshake(); err != nil {
		c.srv.logf("handshake %s: %v", c.nc.RemoteAddr(), err)
		return
	}

	// The session exists for exactly the connection's lifetime: however the
	// connection ends — clean Goodbye, abrupt kill, server drain — its temp
	// tables are reclaimed here.
	c.sess = c.srv.cfg.DB.NewSession()
	defer c.sess.Close()

	br := bufio.NewReaderSize(c.nc, 32<<10)
	bw := bufio.NewWriterSize(c.nc, 32<<10)

	respQ := make(chan *pending, c.srv.cfg.SessionQuota+8)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writeLoop(bw, respQ)
	}()

	c.readLoop(br, respQ)
	close(respQ)
	<-writerDone
}

// handshake authenticates the connection within the handshake timeout.
func (c *conn) handshake() error {
	c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.HandshakeTimeout))
	defer c.nc.SetReadDeadline(time.Time{})
	ft, payload, err := ReadFrame(c.nc)
	if err != nil {
		return err
	}
	if ft != FrameHello {
		return fmt.Errorf("expected Hello, got %s", ft)
	}
	hello, err := DecodeHello(payload)
	if err != nil {
		return err
	}
	if hello.Version != ProtocolVersion {
		WriteFrame(c.nc, FrameError, EncodeError(fmt.Sprintf(
			"unsupported protocol version %d (server speaks %d)", hello.Version, ProtocolVersion)))
		return fmt.Errorf("version mismatch: client %d", hello.Version)
	}
	if c.srv.cfg.Token != "" &&
		subtle.ConstantTimeCompare([]byte(hello.Token), []byte(c.srv.cfg.Token)) != 1 {
		c.srv.authFailed.Add(1)
		WriteFrame(c.nc, FrameError, EncodeError("authentication failed"))
		return errors.New("bad token")
	}
	return WriteFrame(c.nc, FrameWelcome, EncodeWelcome(Welcome{
		Version: ProtocolVersion,
		Server:  c.srv.cfg.Name,
		Shards:  uint32(c.srv.cfg.DB.Shards()),
	}))
}

// readLoop admits requests until the connection drops or the server
// drains. Each request claims the next slot in the ordered response
// stream before dispatch, so concurrent execution cannot reorder answers.
func (c *conn) readLoop(br *bufio.Reader, respQ chan<- *pending) {
	for {
		ft, payload, err := ReadFrame(br)
		if err != nil {
			return // disconnect (or drain poke): session cleanup runs in serve()
		}
		p := &pending{ch: make(chan response, 1)}
		respQ <- p
		c.dispatch(ft, payload, p)
	}
}

// dispatch resolves a request frame into p, inline for control frames and
// through the scheduler for query work.
func (c *conn) dispatch(ft FrameType, payload []byte, p *pending) {
	switch ft {
	case FramePing:
		p.ch <- response{ft: FramePong}
		return
	case FrameClosePrepared:
		id, err := DecodeStmtID(payload)
		if err != nil {
			p.ch <- errResponse(err)
			return
		}
		c.stmtMu.Lock()
		delete(c.stmts, id)
		c.stmtMu.Unlock()
		p.ch <- response{ft: FrameOK}
		return
	}

	// Per-session quota: pipelined requests beyond the quota shed
	// immediately, without touching the shared admission queue.
	if c.inflight.Load() >= int64(c.srv.cfg.SessionQuota) {
		c.srv.shedQuota.Add(1)
		p.ch <- response{ft: FrameBusy, payload: EncodeBusy(BusyQuota)}
		return
	}
	c.inflight.Add(1)
	t := &Task{
		Run: func() {
			defer c.inflight.Add(-1)
			p.ch <- c.execute(ft, payload)
		},
		Shed: func(code uint8) {
			defer c.inflight.Add(-1)
			p.ch <- response{ft: FrameBusy, payload: EncodeBusy(code)}
		},
	}
	// Submit guarantees exactly one of Run/Shed fires, so p always
	// resolves; the error return is already folded into Shed.
	_ = c.srv.sched.Submit(t)
}

// writeLoop flushes responses in request order. After a write error it
// keeps draining (discarding) so executing tasks can still resolve their
// pendings and the reader is never wedged on a full respQ.
func (c *conn) writeLoop(bw *bufio.Writer, respQ <-chan *pending) {
	var dead bool
	for p := range respQ {
		resp := <-p.ch
		if dead {
			continue
		}
		if err := WriteFrame(bw, resp.ft, resp.payload); err != nil {
			dead = true
			continue
		}
		// Flush when no response is immediately ready: batches pipelined
		// bursts into few syscalls without delaying a lone response.
		if len(respQ) == 0 {
			if err := bw.Flush(); err != nil {
				dead = true
			}
		}
	}
	if !dead {
		bw.Flush()
	}
}

func errResponse(err error) response {
	return response{ft: FrameError, payload: EncodeError(err.Error())}
}

// execute runs one admitted request against the database. It is called on
// a scheduler worker; the session layer (temp tables, plan cache) is safe
// for the concurrent pipelined calls a session quota > 1 allows.
func (c *conn) execute(ft FrameType, payload []byte) response {
	db := c.srv.cfg.DB
	switch ft {
	case FrameQuery:
		sql, err := DecodeSQL(payload)
		if err != nil {
			return errResponse(err)
		}
		res, err := db.Query(sql)
		if err != nil {
			return errResponse(err)
		}
		return response{ft: FrameResult, payload: EncodeResult(fromEngineResult(res))}

	case FrameExec:
		sql, err := DecodeSQL(payload)
		if err != nil {
			return errResponse(err)
		}
		n, err := db.Exec(sql)
		if err != nil {
			return errResponse(err)
		}
		return response{ft: FrameExecOK, payload: EncodeExecOK(n)}

	case FrameReport:
		rq, err := DecodeReportRequest(payload)
		if err != nil {
			return errResponse(err)
		}
		rep, err := c.sess.RecencyReport(rq.SQL, configOption(reportConfig(rq.Opts)))
		if err != nil {
			return errResponse(err)
		}
		return response{ft: FrameReportData, payload: EncodeReport(fromReport(rep))}

	case FramePrepare:
		rq, err := DecodeReportRequest(payload)
		if err != nil {
			return errResponse(err)
		}
		return c.prepare(rq)

	case FrameExecPrepared:
		id, err := DecodeStmtID(payload)
		if err != nil {
			return errResponse(err)
		}
		c.stmtMu.Lock()
		st := c.stmts[id]
		c.stmtMu.Unlock()
		if st == nil {
			return errResponse(fmt.Errorf("server: unknown prepared statement %d", id))
		}
		// Execution re-enters the version-keyed plan cache: a hit is the
		// prepared fast path (no parse, no generation), a catalog bump
		// since Prepare misses and regenerates — never a stale plan.
		rep, err := st.Execute(c.sess)
		if err != nil {
			return errResponse(err)
		}
		return response{ft: FrameReportData, payload: EncodeReport(fromReport(rep))}

	default:
		return errResponse(fmt.Errorf("server: unexpected frame %s", ft))
	}
}

// prepare validates the query, generates its recency plan through the
// engine's plan cache (warming it for the execute path), and registers the
// statement in the session.
func (c *conn) prepare(rq ReportRequest) response {
	pr, err := c.srv.cfg.DB.PrepareReport(rq.SQL, configOption(reportConfig(rq.Opts)))
	if err != nil {
		return errResponse(err)
	}
	c.stmtMu.Lock()
	if c.stmts == nil {
		c.stmts = make(map[uint64]*trac.PreparedReport)
	}
	c.nextID++
	id := c.nextID
	c.stmts[id] = pr
	c.stmtMu.Unlock()
	return response{ft: FramePrepared, payload: EncodePrepared(Prepared{
		ID:         id,
		RecencySQL: pr.RecencySQL(),
		Minimal:    pr.Minimal(),
		Empty:      pr.RecencySQL() == "",
	})}
}

// ---------------------------------------------------------------------------
// trac/report adapters.

// reportConfig maps wire options onto the report configuration, the same
// mapping the trac.Option constructors perform.
func reportConfig(o ReportOpts) report.Config {
	var cfg report.Config
	if o.Flags&OptNaive != 0 {
		cfg.Method = report.Naive
	}
	if o.Flags&OptSkipStats != 0 {
		cfg.SkipStats = true
	}
	if o.Flags&OptSkipTempTables != 0 {
		cfg.SkipTempTables = true
	}
	if o.Flags&OptDisableCache != 0 {
		cfg.DisableCache = true
	}
	if o.Flags&OptMADDetector != 0 {
		cfg.Detector = report.DetectorMAD
	}
	cfg.ZThreshold = o.ZThreshold
	return cfg
}

// configOption adapts a wire-decoded config into a trac.Option so the
// serving path runs the exact public-API code path (report.Run or the
// shard router) the embedded API runs.
func configOption(cfg report.Config) trac.Option {
	return func(c *report.Config) { *c = cfg }
}

// fromEngineResult adapts an engine result for the wire (slices are
// shared, not copied; results are immutable once materialized).
func fromEngineResult(res *engine.Result) *Result {
	return &Result{
		Columns:    res.Columns,
		Rows:       res.Rows,
		Parallel:   res.Parallel,
		Vectorized: res.Vectorized,
	}
}

// fromReport flattens a recency report for the wire.
func fromReport(rep *report.Report) *Report {
	out := &Report{
		Result:           fromEngineResult(rep.Result),
		Naive:            rep.Method == report.Naive,
		RecencySQL:       rep.RecencySQL,
		Minimal:          rep.Minimal,
		Reasons:          rep.Reasons,
		Empty:            rep.Empty,
		Normal:           fromPairs(rep.Normal),
		Exceptional:      fromPairs(rep.Exceptional),
		Least:            SourceRecency{Sid: rep.Least.Sid, Recency: rep.Least.Recency},
		Most:             SourceRecency{Sid: rep.Most.Sid, Recency: rep.Most.Recency},
		Bound:            rep.Bound,
		NormalTable:      rep.NormalTable,
		ExceptionalTable: rep.ExceptionalTable,
		CachedPlan:       rep.CachedPlan,
		TimingGenerate:   rep.Timing.Generate,
		TimingUser:       rep.Timing.UserQuery,
		TimingRecency:    rep.Timing.RecencyQuery,
		TimingStats:      rep.Timing.Stats,
	}
	return out
}

func fromPairs(ps []report.SourceRecency) []SourceRecency {
	if len(ps) == 0 {
		return nil
	}
	out := make([]SourceRecency, len(ps))
	for i, p := range ps {
		out[i] = SourceRecency{Sid: p.Sid, Recency: p.Recency}
	}
	return out
}
