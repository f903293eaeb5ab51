// Package tracclient is the thin Go driver for trac-server's wire
// protocol: a versioned handshake, then synchronous request/response frames
// over one TCP connection. Each connection is one server-side session —
// its temp tables and prepared statements live until Close (or until the
// connection drops, when the server reclaims them).
//
//	c, err := tracclient.Dial("127.0.0.1:7483", tracclient.WithToken("s3cret"))
//	defer c.Close()
//	res, err := c.Query(`SELECT mach_id FROM Activity WHERE value = 'idle'`)
//	rep, err := c.Report(`SELECT mach_id FROM Activity WHERE value = 'idle'`)
//	stmt, err := c.Prepare(`SELECT mach_id FROM Activity WHERE value = 'idle'`)
//	rep, err = stmt.Execute() // repeats skip parsing + recency-query generation
//
// A Client is safe for concurrent use; requests serialize on the
// connection. Under server overload a request returns ErrBusy (check with
// errors.Is) instead of queueing unboundedly — back off and retry.
package tracclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"trac/internal/server"
)

// Result is a materialized query result received over the wire.
type Result = server.Result

// Report is a recency report received over the wire.
type Report = server.Report

// SourceRecency is one (source, recency) pair in a report.
type SourceRecency = server.SourceRecency

// ErrBusy is returned when the server's admission layer shed the request:
// every execution slot stayed taken until the request's queueing deadline
// (it never got a place in the queue, or had one and expired there), or the
// server is draining. The request did not run; retry after backoff.
var ErrBusy = errors.New("tracclient: server busy")

// BusyError is the concrete ErrBusy carrying the shed reason.
type BusyError struct{ Code uint8 }

// Error renders the reason.
func (e *BusyError) Error() string {
	return "tracclient: server busy: " + server.BusyReason(e.Code)
}

// Unwrap makes errors.Is(err, ErrBusy) work.
func (e *BusyError) Unwrap() error { return ErrBusy }

// ServerError is an error the server returned for one request; the
// connection remains usable.
type ServerError struct{ Msg string }

// Error returns the server-side message.
func (e *ServerError) Error() string { return e.Msg }

// Option configures Dial.
type Option func(*options)

type options struct {
	token       string
	dialTimeout time.Duration
}

// WithToken sets the shared-secret auth token.
func WithToken(token string) Option {
	return func(o *options) { o.token = token }
}

// WithDialTimeout bounds connection establishment + handshake (default 5s).
func WithDialTimeout(d time.Duration) Option {
	return func(o *options) { o.dialTimeout = d }
}

// Client is one connection to a trac-server (= one server session).
type Client struct {
	mu     sync.Mutex
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	closed bool

	// Welcome fields from the handshake.
	serverName string
	shards     int
}

// Dial connects and completes the handshake.
func Dial(addr string, opts ...Option) (*Client, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.dialTimeout <= 0 {
		o.dialTimeout = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, o.dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{nc: nc, br: bufio.NewReaderSize(nc, 32<<10), bw: bufio.NewWriterSize(nc, 32<<10)}
	nc.SetDeadline(time.Now().Add(o.dialTimeout))
	if err := c.handshake(o.token); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	return c, nil
}

func (c *Client) handshake(token string) error {
	hello := server.EncodeHello(server.Hello{Version: server.ProtocolVersion, Token: token})
	if err := server.WriteFrame(c.bw, server.FrameHello, hello); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	ft, payload, err := server.ReadFrame(c.br)
	if err != nil {
		return fmt.Errorf("tracclient: handshake: %w", err)
	}
	switch ft {
	case server.FrameWelcome:
		w, err := server.DecodeWelcome(payload)
		if err != nil {
			return err
		}
		if w.Version != server.ProtocolVersion {
			return fmt.Errorf("tracclient: server speaks protocol %d, client %d",
				w.Version, server.ProtocolVersion)
		}
		c.serverName = w.Server
		c.shards = int(w.Shards)
		return nil
	case server.FrameError:
		msg, derr := server.DecodeError(payload)
		if derr != nil {
			return derr
		}
		return &ServerError{Msg: msg}
	default:
		return fmt.Errorf("tracclient: handshake: unexpected frame %s", ft)
	}
}

// ServerName returns the handshake's server string.
func (c *Client) ServerName() string { return c.serverName }

// Shards returns the served database's shard count (1 when unsharded).
func (c *Client) Shards() int { return c.shards }

// Close closes the connection; the server reclaims the session's temp
// tables and prepared statements.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.nc.Close()
}

// roundTrip sends one request frame and reads its response frame.
func (c *Client) roundTrip(ft server.FrameType, payload []byte) (server.FrameType, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, errors.New("tracclient: client is closed")
	}
	if err := server.WriteFrame(c.bw, ft, payload); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	return server.ReadFrame(c.br)
}

// fail maps Error/Busy response frames onto driver errors.
func fail(ft server.FrameType, payload []byte) error {
	switch ft {
	case server.FrameError:
		msg, err := server.DecodeError(payload)
		if err != nil {
			return err
		}
		return &ServerError{Msg: msg}
	case server.FrameBusy:
		code, err := server.DecodeBusy(payload)
		if err != nil {
			return err
		}
		return &BusyError{Code: code}
	default:
		return fmt.Errorf("tracclient: unexpected response frame %s", ft)
	}
}

// Query runs a SELECT and materializes its result.
func (c *Client) Query(sql string) (*Result, error) {
	ft, payload, err := c.roundTrip(server.FrameQuery, server.EncodeSQL(sql))
	if err != nil {
		return nil, err
	}
	if ft != server.FrameResult {
		return nil, fail(ft, payload)
	}
	return server.DecodeResult(payload)
}

// Exec executes any SQL statement, returning the affected-row count.
func (c *Client) Exec(sql string) (int, error) {
	ft, payload, err := c.roundTrip(server.FrameExec, server.EncodeSQL(sql))
	if err != nil {
		return 0, err
	}
	if ft != server.FrameExecOK {
		return 0, fail(ft, payload)
	}
	return server.DecodeExecOK(payload)
}

// ReportOption tunes a recency report, mirroring the embedded trac.Option
// knobs.
type ReportOption func(*server.ReportOpts)

// Naive reports every source in the Heartbeat table (the baseline method).
func Naive() ReportOption {
	return func(o *server.ReportOpts) { o.Flags |= server.OptNaive }
}

// WithoutStats disables exceptional-source detection and statistics.
func WithoutStats() ReportOption {
	return func(o *server.ReportOpts) { o.Flags |= server.OptSkipStats }
}

// WithoutTempTables skips materializing sys_temp_* tables server-side.
func WithoutTempTables() ReportOption {
	return func(o *server.ReportOpts) { o.Flags |= server.OptSkipTempTables }
}

// WithoutPlanCache forces full re-parse and regeneration (ablation knob;
// this is what makes the unprepared benchmark series honest).
func WithoutPlanCache() ReportOption {
	return func(o *server.ReportOpts) { o.Flags |= server.OptDisableCache }
}

// MADDetector switches exceptional-source detection to the modified
// z-score.
func MADDetector() ReportOption {
	return func(o *server.ReportOpts) { o.Flags |= server.OptMADDetector }
}

// ZThreshold overrides the |z| cutoff for exceptional-source detection.
func ZThreshold(z float64) ReportOption {
	return func(o *server.ReportOpts) { o.ZThreshold = z }
}

func reportOpts(opts []ReportOption) server.ReportOpts {
	var o server.ReportOpts
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Report runs a query with its recency report in one round trip.
func (c *Client) Report(sql string, opts ...ReportOption) (*Report, error) {
	rq := server.ReportRequest{SQL: sql, Opts: reportOpts(opts)}
	ft, payload, err := c.roundTrip(server.FrameReport, server.EncodeReportRequest(rq))
	if err != nil {
		return nil, err
	}
	if ft != server.FrameReportData {
		return nil, fail(ft, payload)
	}
	return server.DecodeReport(payload)
}

// Stmt is a server-side prepared recency report: prepared once, executable
// many times. Executions ride the server's version-keyed plan cache, so
// they skip parsing and recency-query generation while never serving a
// plan staler than the catalog.
type Stmt struct {
	c  *Client
	id uint64
	// RecencySQL is the generated recency query ("" when provably no
	// source is relevant).
	RecencySQL string
	// Minimal reports whether the relevant-source set is guaranteed
	// minimal.
	Minimal bool
	// Empty reports a provably empty relevant-source set.
	Empty bool
}

// Prepare parses the query and generates its recency plan server-side.
func (c *Client) Prepare(sql string, opts ...ReportOption) (*Stmt, error) {
	rq := server.ReportRequest{SQL: sql, Opts: reportOpts(opts)}
	ft, payload, err := c.roundTrip(server.FramePrepare, server.EncodeReportRequest(rq))
	if err != nil {
		return nil, err
	}
	if ft != server.FramePrepared {
		return nil, fail(ft, payload)
	}
	p, err := server.DecodePrepared(payload)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, id: p.ID, RecencySQL: p.RecencySQL, Minimal: p.Minimal, Empty: p.Empty}, nil
}

// Execute runs the prepared pair under a fresh snapshot.
func (s *Stmt) Execute() (*Report, error) {
	ft, payload, err := s.c.roundTrip(server.FrameExecPrepared, server.EncodeStmtID(s.id))
	if err != nil {
		return nil, err
	}
	if ft != server.FrameReportData {
		return nil, fail(ft, payload)
	}
	return server.DecodeReport(payload)
}

// Close releases the server-side statement.
func (s *Stmt) Close() error {
	ft, payload, err := s.c.roundTrip(server.FrameClosePrepared, server.EncodeStmtID(s.id))
	if err != nil {
		return err
	}
	if ft != server.FrameOK {
		return fail(ft, payload)
	}
	return nil
}

// Ping round-trips a no-op frame (answered without an execution slot, so it
// works even when the admission queue is saturated).
func (c *Client) Ping() error {
	ft, payload, err := c.roundTrip(server.FramePing, nil)
	if err != nil {
		return err
	}
	if ft != server.FramePong {
		return fail(ft, payload)
	}
	return nil
}
