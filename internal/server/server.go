package server

import (
	"bufio"
	"context"
	"crypto/subtle"
	"encoding/binary"
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
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	return c
}

// Stats is a serving snapshot.
type Stats struct {
	Sched      SchedStats
	Conns      int    // live connections
	Accepted   uint64 // connections accepted since start
	AuthFailed uint64
}

// Server serves the TRAC wire protocol over a listener, mapping each
// authenticated connection onto one engine session and one goroutine, which
// takes every request through the admission scheduler and runs it itself.
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
	// Unblock every connection parked in a read. One that is serving a
	// request writes and flushes its answer first, as it does before any
	// read, and closes when that read fails.
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
		// Force-close stragglers; they exit on the dead conn.
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
	}
}

// ---------------------------------------------------------------------------
// Connection handling.

// maxRetainedBuf bounds the frame buffers a connection keeps between
// requests: one oversized statement or result set is not pinned for the
// connection's lifetime.
const maxRetainedBuf = 1 << 20

// conn is one client connection, served by one goroutine that reads a
// request, takes an execution slot, runs the request and writes the answer
// before it reads the next: pipelined requests run in the order they were
// sent, answers leave in that order, and no field is shared.
type conn struct {
	srv *Server
	nc  net.Conn

	sess   *trac.Session
	stmts  map[uint64]*trac.PreparedReport
	nextID uint64

	// The request being served. task's Run and Shed are bound once per
	// connection and exchange the request and its answer through these
	// fields, so admission allocates nothing per request.
	task    Task
	ft      FrameType // request type going in, response type coming out
	payload []byte    // likewise

	// in holds the request payload, dead once the request has executed
	// (decoding copies what it keeps); out holds the encoded result or
	// report, written before the next request executes.
	in, out []byte
}

func (c *conn) serve() {
	defer c.srv.connWG.Done()
	defer func() {
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
	}()
	defer c.nc.Close()

	br := bufio.NewReaderSize(c.nc, 32<<10)
	bw := bufio.NewWriterSize(c.nc, 32<<10)
	if err := c.handshake(br, bw); err != nil {
		c.srv.logf("handshake %s: %v", c.nc.RemoteAddr(), err)
		return
	}
	// The handshake's deadline reset may have cleared a drain poke that
	// landed during it; a Shutdown that starts after this check pokes again.
	c.srv.mu.Lock()
	draining := c.srv.draining
	c.srv.mu.Unlock()
	if draining {
		return
	}

	// The session exists for exactly the connection's lifetime: however the
	// connection ends — clean Goodbye, abrupt kill, server drain — its temp
	// tables are reclaimed here.
	c.sess = c.srv.cfg.DB.NewSession()
	defer c.sess.Close()

	c.task = Task{Run: c.run, Shed: c.shed}
	for {
		var err error
		if c.ft, c.payload, err = ReadFrameInto(br, c.in, MaxFrameSize); err != nil {
			// Disconnect, drain poke or a corrupt frame behind answers still
			// buffered; the connection closes whether or not they get out.
			_ = bw.Flush()
			return
		}
		c.in = retained(c.payload)
		c.respond()
		if err := WriteFrame(bw, c.ft, c.payload); err != nil {
			return
		}
		c.out = retained(c.out)
		// Flush before any read that can block. While the client's next
		// frame is already here the answers accumulate, so a pipelined burst
		// goes out in few writes and a lone request is never delayed.
		if !frameBuffered(br) {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// retained is buf emptied for reuse, or nil when it grew too large to keep.
func retained(buf []byte) []byte {
	if cap(buf) > maxRetainedBuf {
		return nil
	}
	return buf[:0]
}

// frameBuffered reports whether br holds a complete frame, which can be read
// without blocking.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < frameHeaderLen {
		return false
	}
	hdr, _ := br.Peek(frameHeaderLen) // buffered bytes: Peek cannot fail
	return int64(br.Buffered()-frameHeaderLen) >= int64(binary.BigEndian.Uint32(hdr[1:]))
}

// handshake authenticates the connection within the handshake timeout. It
// reads the Hello through br, so request bytes read ahead of it stay there
// for the serving loop, and its answer, a Welcome or a refusal, goes out
// through bw in one write.
func (c *conn) handshake(br *bufio.Reader, bw *bufio.Writer) error {
	c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.HandshakeTimeout))
	defer c.nc.SetReadDeadline(time.Time{})
	ft, payload, err := ReadFrame(br)
	if err != nil {
		return err
	}
	if ft != FrameHello {
		return fmt.Errorf("expected Hello, got %s", ft)
	}
	// The version decides how the rest of the Hello is laid out, so it is
	// checked before the decode error.
	hello, err := DecodeHello(payload)
	if hello.Version != ProtocolVersion {
		refuse(bw, fmt.Sprintf("unsupported protocol version %d (server speaks %d)", hello.Version, ProtocolVersion))
		return fmt.Errorf("version mismatch: client %d", hello.Version)
	}
	if err != nil {
		return err
	}
	if c.srv.cfg.Token != "" &&
		subtle.ConstantTimeCompare([]byte(hello.Token), []byte(c.srv.cfg.Token)) != 1 {
		c.srv.authFailed.Add(1)
		refuse(bw, "authentication failed")
		return errors.New("bad token")
	}
	if err := WriteFrame(bw, FrameWelcome, EncodeWelcome(Welcome{
		Version: ProtocolVersion,
		Server:  c.srv.cfg.Name,
		Shards:  uint32(c.srv.cfg.DB.Shards()),
	})); err != nil {
		return err
	}
	return bw.Flush()
}

// refuse sends a handshake's Error frame, best effort: the connection closes
// either way.
func refuse(bw *bufio.Writer, msg string) {
	if WriteFrame(bw, FrameError, EncodeError(msg)) == nil {
		_ = bw.Flush()
	}
}

// respond replaces the request in c.ft/c.payload with its answer: inline for
// control frames, which do no query work and so answer even when every slot
// is taken, and through the scheduler for the rest.
func (c *conn) respond() {
	switch c.ft {
	case FramePing:
		c.ft, c.payload = FramePong, nil
	case FrameClosePrepared:
		id, err := DecodeStmtID(c.payload)
		if err != nil {
			c.ft, c.payload = errResponse(err)
			return
		}
		delete(c.stmts, id)
		c.ft, c.payload = FrameOK, nil
	default:
		// Exactly one of run and shed has answered when Submit returns; the
		// error it returns is that same shed.
		_ = c.srv.sched.Submit(&c.task)
	}
}

func (c *conn) run() { c.ft, c.payload = c.execute(c.ft, c.payload) }

func (c *conn) shed(code uint8) { c.ft, c.payload = FrameBusy, EncodeBusy(code) }

func errResponse(err error) (FrameType, []byte) {
	return FrameError, EncodeError(err.Error())
}

// execute runs one admitted request against the database and returns the
// response frame. Results and reports are encoded into c.out.
func (c *conn) execute(ft FrameType, payload []byte) (FrameType, []byte) {
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
		c.out = AppendResult(c.out[:0], fromEngineResult(res))
		return FrameResult, c.out

	case FrameExec:
		sql, err := DecodeSQL(payload)
		if err != nil {
			return errResponse(err)
		}
		n, err := db.Exec(sql)
		if err != nil {
			return errResponse(err)
		}
		return FrameExecOK, EncodeExecOK(n)

	case FrameReport:
		rq, err := DecodeReportRequest(payload)
		if err != nil {
			return errResponse(err)
		}
		rep, err := c.sess.RecencyReport(rq.SQL, configOption(reportConfig(rq.Opts)))
		if err != nil {
			return errResponse(err)
		}
		c.out = AppendReport(c.out[:0], fromReport(rep))
		return FrameReportData, c.out

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
		st := c.stmts[id]
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
		c.out = AppendReport(c.out[:0], fromReport(rep))
		return FrameReportData, c.out

	default:
		return errResponse(fmt.Errorf("server: unexpected frame %s", ft))
	}
}

// prepare validates the query, generates its recency plan through the
// engine's plan cache (warming it for the execute path), and registers the
// statement in the session.
func (c *conn) prepare(rq ReportRequest) (FrameType, []byte) {
	pr, err := c.srv.cfg.DB.PrepareReport(rq.SQL, configOption(reportConfig(rq.Opts)))
	if err != nil {
		return errResponse(err)
	}
	if c.stmts == nil {
		c.stmts = make(map[uint64]*trac.PreparedReport)
	}
	c.nextID++
	c.stmts[c.nextID] = pr
	return FramePrepared, EncodePrepared(Prepared{
		ID:         c.nextID,
		RecencySQL: pr.RecencySQL(),
		Minimal:    pr.Minimal(),
		Empty:      pr.RecencySQL() == "",
	})
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
