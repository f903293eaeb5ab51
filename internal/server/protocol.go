// Package server is TRAC's concurrent serving layer: a length-prefixed
// binary frame protocol, an authenticated session layer mapping each
// connection onto one engine session (temp tables, prepared recency reports
// riding the plan cache) served by one goroutine, and an admission scheduler
// that shares the morsel-parallel executor among many clients with bounded
// p99 under overload.
//
// This file is the wire protocol. Every frame is
//
//	[1 byte type][4 byte big-endian payload length][payload]
//
// and every connection starts with a versioned handshake: the client sends
// Hello (protocol version + auth token), the server answers Welcome or an
// Error frame and closes. After the handshake the client issues request
// frames (Query, Exec, Report, Prepare, ExecPrepared, ClosePrepared, Ping)
// and the server answers each with exactly one response frame, in request
// order. A client may pipeline: the requests of one connection run one at a
// time in the order they were sent, and the answers to a burst share writes.
// Requests the admission layer refuses get a Busy frame instead of queueing
// unboundedly.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"trac/internal/types"
)

// ProtocolVersion is the wire protocol version carried in the handshake.
// A server refuses a client whose version it does not speak.
const ProtocolVersion = 1

// MaxFrameSize bounds a single frame's payload; a peer announcing more is
// treated as corrupt and the connection is dropped. Result sets stream as
// one frame, so this is also the result-set ceiling.
const MaxFrameSize = 64 << 20

// frameHeaderLen is the frame header: one type byte, then the payload length.
const frameHeaderLen = 5

// FrameType tags a frame.
type FrameType uint8

// Frame types. Handshake, then request/response pairs.
const (
	frameInvalid FrameType = iota

	// Handshake.
	FrameHello   // client → server: version, token
	FrameWelcome // server → client: version, server name, shard count

	// Requests.
	FrameQuery         // SELECT → FrameResult
	FrameExec          // any statement → FrameExecOK
	FrameReport        // SELECT + report options → FrameReportData
	FramePrepare       // SELECT + report options → FramePrepared
	FrameExecPrepared  // statement id → FrameReportData
	FrameClosePrepared // statement id → FrameOK
	FramePing          // → FramePong

	// Responses.
	FrameResult
	FrameExecOK
	FrameReportData
	FramePrepared
	FrameOK
	FramePong
	FrameError
	FrameBusy

	frameMax // one past the last valid type
)

// String names a frame type for errors and logs.
func (t FrameType) String() string {
	names := map[FrameType]string{
		FrameHello: "Hello", FrameWelcome: "Welcome", FrameQuery: "Query",
		FrameExec: "Exec", FrameReport: "Report", FramePrepare: "Prepare",
		FrameExecPrepared: "ExecPrepared", FrameClosePrepared: "ClosePrepared",
		FramePing: "Ping", FrameResult: "Result", FrameExecOK: "ExecOK",
		FrameReportData: "ReportData", FramePrepared: "Prepared",
		FrameOK: "OK", FramePong: "Pong", FrameError: "Error", FrameBusy: "Busy",
	}
	if s, ok := names[t]; ok {
		return s
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("server: frame payload %d exceeds limit %d", len(payload), MaxFrameSize)
	}
	var hdr [frameHeaderLen]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, rejecting unknown types and oversized payloads
// before allocating for them.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	return ReadFrameInto(r, nil, MaxFrameSize)
}

// ReadFrameInto is ReadFrame with a caller-chosen payload ceiling (tests and
// fuzzing use small limits so corrupt length prefixes cannot demand large
// allocations) that reads the payload into buf's capacity when it fits,
// allocating otherwise: the returned payload then aliases buf, so a reader
// that is done with one frame before it reads the next passes the same
// buffer every time.
func ReadFrameInto(r io.Reader, buf []byte, limit int) (FrameType, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frameInvalid, nil, err
	}
	t := FrameType(hdr[0])
	if t == frameInvalid || t >= frameMax {
		return frameInvalid, nil, fmt.Errorf("server: unknown frame type %d", hdr[0])
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if int64(n) > int64(limit) {
		return frameInvalid, nil, fmt.Errorf("server: frame payload %d exceeds limit %d", n, limit)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return frameInvalid, nil, err
	}
	return t, payload, nil
}

// ---------------------------------------------------------------------------
// Payload encoding: a tiny append-based writer and a sticky-error reader.
// All integers are big-endian; strings and slices are u32-length-prefixed;
// length claims are validated against the bytes actually remaining before
// any allocation, so a corrupt frame can never demand more memory than its
// own size.

type wbuf struct{ b []byte }

func (w *wbuf) u8(v uint8)   { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)  { w.u64(uint64(v)) }
func (w *wbuf) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *wbuf) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *wbuf) strs(ss []string) {
	w.u32(uint32(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *wbuf) value(v types.Value) {
	w.u8(uint8(v.Kind()))
	switch v.Kind() {
	case types.KindNull:
	case types.KindBool:
		w.bool(v.Bool())
	case types.KindInt:
		w.i64(v.Int())
	case types.KindFloat:
		w.f64(v.Float())
	case types.KindString:
		w.str(v.Str())
	case types.KindTime:
		w.i64(v.TimeNanos())
	}
}

type rbuf struct {
	b   []byte
	off int
	err error
}

// fail records the first decode error; all later reads return zero values.
func (r *rbuf) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("server: decode: "+format, args...)
	}
}

func (r *rbuf) remaining() int { return len(r.b) - r.off }

func (r *rbuf) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.fail("need %d bytes, have %d", n, r.remaining())
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *rbuf) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *rbuf) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *rbuf) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *rbuf) i64() int64    { return int64(r.u64()) }
func (r *rbuf) f64() float64  { return math.Float64frombits(r.u64()) }
func (r *rbuf) boolean() bool { return r.u8() != 0 }

func (r *rbuf) str() string {
	n := int(r.u32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// count validates a claimed element count against the remaining payload,
// given a minimum encoded size per element, before the caller allocates.
func (r *rbuf) count(minElemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*minElemSize > r.remaining() {
		r.fail("claimed %d elements exceed %d remaining bytes", n, r.remaining())
		return 0
	}
	return n
}

func (r *rbuf) strs() []string {
	n := r.count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *rbuf) value() types.Value {
	switch k := types.Kind(r.u8()); k {
	case types.KindNull:
		return types.Null
	case types.KindBool:
		return types.NewBool(r.boolean())
	case types.KindInt:
		return types.NewInt(r.i64())
	case types.KindFloat:
		return types.NewFloat(r.f64())
	case types.KindString:
		return types.NewString(r.str())
	case types.KindTime:
		return types.NewTimeNanos(r.i64())
	default:
		r.fail("unknown value kind %d", k)
		return types.Null
	}
}

// finish asserts the whole payload was consumed; trailing garbage means a
// framing bug or a hostile peer.
func (r *rbuf) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("server: decode: %d trailing bytes", r.remaining())
	}
	return nil
}

// ---------------------------------------------------------------------------
// Handshake payloads.

// Hello is the client's opening frame.
type Hello struct {
	Version uint32
	Token   string
}

// EncodeHello renders a Hello payload.
func EncodeHello(h Hello) []byte {
	var w wbuf
	w.u32(h.Version)
	w.str(h.Token)
	return w.b
}

// DecodeHello parses a Hello payload.
func DecodeHello(b []byte) (Hello, error) {
	r := rbuf{b: b}
	h := Hello{Version: r.u32(), Token: r.str()}
	return h, r.finish()
}

// Welcome is the server's handshake acceptance.
type Welcome struct {
	Version uint32
	Server  string
	Shards  uint32
}

// EncodeWelcome renders a Welcome payload.
func EncodeWelcome(wl Welcome) []byte {
	var w wbuf
	w.u32(wl.Version)
	w.str(wl.Server)
	w.u32(wl.Shards)
	return w.b
}

// DecodeWelcome parses a Welcome payload.
func DecodeWelcome(b []byte) (Welcome, error) {
	r := rbuf{b: b}
	wl := Welcome{Version: r.u32(), Server: r.str(), Shards: r.u32()}
	return wl, r.finish()
}

// ---------------------------------------------------------------------------
// Report options travel as a flag byte plus the z-threshold override, the
// wire form of the trac.Option knobs that shape a recency report.

// ReportOpts flag bits.
const (
	OptNaive uint8 = 1 << iota
	OptSkipStats
	OptSkipTempTables
	OptDisableCache
	OptMADDetector
)

// ReportOpts selects the recency-report variant for Report/Prepare frames.
type ReportOpts struct {
	Flags      uint8
	ZThreshold float64
}

func (w *wbuf) reportOpts(o ReportOpts) {
	w.u8(o.Flags)
	w.f64(o.ZThreshold)
}

func (r *rbuf) reportOpts() ReportOpts {
	return ReportOpts{Flags: r.u8(), ZThreshold: r.f64()}
}

// ---------------------------------------------------------------------------
// Request payloads. Query/Exec carry bare SQL; Report/Prepare add options;
// ExecPrepared/ClosePrepared carry the statement id.

// EncodeSQL renders the Query/Exec payload.
func EncodeSQL(sql string) []byte {
	var w wbuf
	w.str(sql)
	return w.b
}

// DecodeSQL parses a Query/Exec payload.
func DecodeSQL(b []byte) (string, error) {
	r := rbuf{b: b}
	sql := r.str()
	return sql, r.finish()
}

// ReportRequest is the Report/Prepare payload.
type ReportRequest struct {
	SQL  string
	Opts ReportOpts
}

// EncodeReportRequest renders a Report/Prepare payload.
func EncodeReportRequest(rq ReportRequest) []byte {
	var w wbuf
	w.str(rq.SQL)
	w.reportOpts(rq.Opts)
	return w.b
}

// DecodeReportRequest parses a Report/Prepare payload.
func DecodeReportRequest(b []byte) (ReportRequest, error) {
	r := rbuf{b: b}
	rq := ReportRequest{SQL: r.str(), Opts: r.reportOpts()}
	return rq, r.finish()
}

// EncodeStmtID renders an ExecPrepared/ClosePrepared payload.
func EncodeStmtID(id uint64) []byte {
	var w wbuf
	w.u64(id)
	return w.b
}

// DecodeStmtID parses an ExecPrepared/ClosePrepared payload.
func DecodeStmtID(b []byte) (uint64, error) {
	r := rbuf{b: b}
	id := r.u64()
	return id, r.finish()
}

// ---------------------------------------------------------------------------
// Response payloads.

// Result is a materialized query result on the wire, mirroring
// engine.Result field for field.
type Result struct {
	Columns    []string
	Rows       [][]types.Value
	Parallel   int
	Vectorized bool
}

func (w *wbuf) result(res *Result) {
	w.u32(uint32(res.Parallel))
	w.bool(res.Vectorized)
	w.strs(res.Columns)
	w.u32(uint32(len(res.Rows)))
	for _, row := range res.Rows {
		w.u32(uint32(len(row)))
		for _, v := range row {
			w.value(v)
		}
	}
}

func (r *rbuf) result() *Result {
	res := &Result{Parallel: int(r.u32()), Vectorized: r.boolean(), Columns: r.strs()}
	n := r.count(4)
	if r.err != nil {
		return res
	}
	res.Rows = make([][]types.Value, 0, n)
	for i := 0; i < n; i++ {
		width := r.count(1)
		if r.err != nil {
			return res
		}
		row := make([]types.Value, width)
		for j := range row {
			row[j] = r.value()
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// EncodeResult renders a FrameResult payload.
func EncodeResult(res *Result) []byte { return AppendResult(nil, res) }

// AppendResult appends a FrameResult payload to dst.
func AppendResult(dst []byte, res *Result) []byte {
	w := wbuf{b: dst}
	w.result(res)
	return w.b
}

// DecodeResult parses a FrameResult payload.
func DecodeResult(b []byte) (*Result, error) {
	r := rbuf{b: b}
	res := r.result()
	return res, r.finish()
}

// EncodeExecOK renders a FrameExecOK payload (rows affected).
func EncodeExecOK(n int) []byte {
	var w wbuf
	w.i64(int64(n))
	return w.b
}

// DecodeExecOK parses a FrameExecOK payload.
func DecodeExecOK(b []byte) (int, error) {
	r := rbuf{b: b}
	n := r.i64()
	return int(n), r.finish()
}

// SourceRecency is one (source, recency) pair on the wire.
type SourceRecency struct {
	Sid     string
	Recency time.Time
}

// timeVal encodes an instant as Unix nanoseconds, with a sentinel for the
// zero time (whose UnixNano is undefined) so zero round-trips exactly —
// Least/Most are zero when a report has no normal sources.
func (w *wbuf) timeVal(t time.Time) {
	if t.IsZero() {
		w.i64(math.MinInt64)
		return
	}
	w.i64(t.UnixNano())
}

func (r *rbuf) timeVal() time.Time {
	n := r.i64()
	if n == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

func (w *wbuf) pairs(ps []SourceRecency) {
	w.u32(uint32(len(ps)))
	for _, p := range ps {
		w.str(p.Sid)
		w.timeVal(p.Recency)
	}
}

func (r *rbuf) pairs() []SourceRecency {
	n := r.count(12)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]SourceRecency, n)
	for i := range out {
		out[i].Sid = r.str()
		out[i].Recency = r.timeVal()
	}
	return out
}

// Report is a recency report on the wire: the user result plus every
// report field a consumer acts on, mirroring report.Report minus the
// engine-internal handles.
type Report struct {
	Result                        *Result
	Naive                         bool
	RecencySQL                    string
	Minimal                       bool
	Reasons                       []string
	Empty                         bool
	Normal                        []SourceRecency
	Exceptional                   []SourceRecency
	Least, Most                   SourceRecency
	Bound                         time.Duration
	NormalTable, ExceptionalTable string
	CachedPlan                    bool
	// Timing components in nanoseconds (generate, user query, recency
	// query, stats), informational.
	TimingGenerate, TimingUser, TimingRecency, TimingStats time.Duration
}

// EncodeReport renders a FrameReportData payload.
func EncodeReport(rep *Report) []byte { return AppendReport(nil, rep) }

// AppendReport appends a FrameReportData payload to dst.
func AppendReport(dst []byte, rep *Report) []byte {
	w := wbuf{b: dst}
	w.result(rep.Result)
	w.bool(rep.Naive)
	w.str(rep.RecencySQL)
	w.bool(rep.Minimal)
	w.strs(rep.Reasons)
	w.bool(rep.Empty)
	w.pairs(rep.Normal)
	w.pairs(rep.Exceptional)
	w.str(rep.Least.Sid)
	w.timeVal(rep.Least.Recency)
	w.str(rep.Most.Sid)
	w.timeVal(rep.Most.Recency)
	w.i64(int64(rep.Bound))
	w.str(rep.NormalTable)
	w.str(rep.ExceptionalTable)
	w.bool(rep.CachedPlan)
	w.i64(int64(rep.TimingGenerate))
	w.i64(int64(rep.TimingUser))
	w.i64(int64(rep.TimingRecency))
	w.i64(int64(rep.TimingStats))
	return w.b
}

// DecodeReport parses a FrameReportData payload.
func DecodeReport(b []byte) (*Report, error) {
	r := rbuf{b: b}
	rep := &Report{Result: r.result()}
	rep.Naive = r.boolean()
	rep.RecencySQL = r.str()
	rep.Minimal = r.boolean()
	rep.Reasons = r.strs()
	rep.Empty = r.boolean()
	rep.Normal = r.pairs()
	rep.Exceptional = r.pairs()
	rep.Least = SourceRecency{Sid: r.str(), Recency: r.timeVal()}
	rep.Most = SourceRecency{Sid: r.str(), Recency: r.timeVal()}
	rep.Bound = time.Duration(r.i64())
	rep.NormalTable = r.str()
	rep.ExceptionalTable = r.str()
	rep.CachedPlan = r.boolean()
	rep.TimingGenerate = time.Duration(r.i64())
	rep.TimingUser = time.Duration(r.i64())
	rep.TimingRecency = time.Duration(r.i64())
	rep.TimingStats = time.Duration(r.i64())
	return rep, r.finish()
}

// Prepared is the FramePrepared payload: the server-side statement handle
// plus the generation outcome, so a client can inspect the recency plan
// without executing it.
type Prepared struct {
	ID         uint64
	RecencySQL string
	Minimal    bool
	Empty      bool
}

// EncodePrepared renders a FramePrepared payload.
func EncodePrepared(p Prepared) []byte {
	var w wbuf
	w.u64(p.ID)
	w.str(p.RecencySQL)
	w.bool(p.Minimal)
	w.bool(p.Empty)
	return w.b
}

// DecodePrepared parses a FramePrepared payload.
func DecodePrepared(b []byte) (Prepared, error) {
	r := rbuf{b: b}
	p := Prepared{ID: r.u64(), RecencySQL: r.str(), Minimal: r.boolean(), Empty: r.boolean()}
	return p, r.finish()
}

// EncodeError renders a FrameError payload.
func EncodeError(msg string) []byte {
	var w wbuf
	w.str(msg)
	return w.b
}

// DecodeError parses a FrameError payload.
func DecodeError(b []byte) (string, error) {
	r := rbuf{b: b}
	msg := r.str()
	return msg, r.finish()
}

// Busy reasons: why the admission layer refused a request.
const (
	BusyQueueFull uint8 = iota + 1 // admission queue stayed full past the deadline
	BusyExpired                    // admitted, but its deadline passed while queued
	BusyQuota                      // reserved, never sent: a session has one request in flight by construction
	BusyDraining                   // the server is shutting down
)

// BusyReason names a Busy code.
func BusyReason(code uint8) string {
	switch code {
	case BusyQueueFull:
		return "queue full"
	case BusyExpired:
		return "expired in queue"
	case BusyQuota:
		return "session quota exceeded"
	case BusyDraining:
		return "server draining"
	default:
		return fmt.Sprintf("busy(%d)", code)
	}
}

// EncodeBusy renders a FrameBusy payload.
func EncodeBusy(code uint8) []byte {
	var w wbuf
	w.u8(code)
	return w.b
}

// DecodeBusy parses a FrameBusy payload.
func DecodeBusy(b []byte) (uint8, error) {
	r := rbuf{b: b}
	code := r.u8()
	return code, r.finish()
}
