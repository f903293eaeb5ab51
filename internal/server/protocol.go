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

	"trac/internal/codec"
	"trac/internal/types"
)

// ProtocolVersion is the wire protocol version carried in the handshake.
// A server refuses a client whose version it does not speak. Version 2
// encodes every payload with internal/codec.
const ProtocolVersion = 2

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
// Payloads are encoded by the repo's one binary codec (internal/codec):
// varints, length-prefixed strings, values in the codec's value encoding.
// Every decoder consumes its payload exactly, and every count it reads is
// held to the bytes that remain before anything is allocated for it, so a
// corrupt frame can never demand more memory than its own size.

// u32 reads a uvarint that must fit 32 bits.
func u32(d *codec.Decoder) uint32 {
	v := d.Uvarint()
	if v > math.MaxUint32 {
		d.Fail("%d overflows 32 bits", v)
		return 0
	}
	return uint32(v)
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
	var a codec.Appender
	a.Uvarint(uint64(h.Version))
	a.String(h.Token)
	return a.B
}

// DecodeHello parses a Hello payload. The version comes first and is set
// whenever the payload starts with one, even when the rest fails to decode:
// a server answers a client of another protocol version by its version, not
// by the layout that version gives the rest of its Hello.
func DecodeHello(b []byte) (Hello, error) {
	d := codec.NewDecoder(b)
	h := Hello{Version: u32(&d)}
	h.Token = d.String()
	return h, d.Finish()
}

// Welcome is the server's handshake acceptance.
type Welcome struct {
	Version uint32
	Server  string
	Shards  uint32
}

// EncodeWelcome renders a Welcome payload.
func EncodeWelcome(wl Welcome) []byte {
	var a codec.Appender
	a.Uvarint(uint64(wl.Version))
	a.String(wl.Server)
	a.Uvarint(uint64(wl.Shards))
	return a.B
}

// DecodeWelcome parses a Welcome payload.
func DecodeWelcome(b []byte) (Welcome, error) {
	d := codec.NewDecoder(b)
	wl := Welcome{Version: u32(&d), Server: d.String(), Shards: u32(&d)}
	return wl, d.Finish()
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

// ---------------------------------------------------------------------------
// Request payloads. Query/Exec carry bare SQL; Report/Prepare add options;
// ExecPrepared/ClosePrepared carry the statement id.

// EncodeSQL renders the Query/Exec payload.
func EncodeSQL(sql string) []byte {
	a := codec.Appender{B: make([]byte, 0, binary.MaxVarintLen64+len(sql))}
	a.String(sql)
	return a.B
}

// DecodeSQL parses a Query/Exec payload.
func DecodeSQL(b []byte) (string, error) {
	d := codec.NewDecoder(b)
	sql := d.String()
	return sql, d.Finish()
}

// ReportRequest is the Report/Prepare payload.
type ReportRequest struct {
	SQL  string
	Opts ReportOpts
}

// EncodeReportRequest renders a Report/Prepare payload.
func EncodeReportRequest(rq ReportRequest) []byte {
	a := codec.Appender{B: make([]byte, 0, binary.MaxVarintLen64+len(rq.SQL)+9)}
	a.String(rq.SQL)
	a.Byte(rq.Opts.Flags)
	a.Float64(rq.Opts.ZThreshold)
	return a.B
}

// DecodeReportRequest parses a Report/Prepare payload.
func DecodeReportRequest(b []byte) (ReportRequest, error) {
	d := codec.NewDecoder(b)
	rq := ReportRequest{SQL: d.String(), Opts: ReportOpts{Flags: d.Byte(), ZThreshold: d.Float64()}}
	return rq, d.Finish()
}

// EncodeStmtID renders an ExecPrepared/ClosePrepared payload.
func EncodeStmtID(id uint64) []byte {
	var a codec.Appender
	a.Uvarint(id)
	return a.B
}

// DecodeStmtID parses an ExecPrepared/ClosePrepared payload.
func DecodeStmtID(b []byte) (uint64, error) {
	d := codec.NewDecoder(b)
	id := d.Uvarint()
	return id, d.Finish()
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

func appendResult(a *codec.Appender, res *Result) {
	a.Uvarint(uint64(res.Parallel))
	a.Bool(res.Vectorized)
	appendStrings(a, res.Columns)
	a.Uvarint(uint64(len(res.Rows)))
	for _, row := range res.Rows {
		a.Uvarint(uint64(len(row)))
		for _, v := range row {
			a.Value(v)
		}
	}
}

func decodeResult(d *codec.Decoder) *Result {
	res := &Result{Parallel: int(u32(d)), Vectorized: d.Bool(), Columns: decodeStrings(d)}
	n := d.Count(1)
	if n == 0 {
		return res
	}
	res.Rows = make([][]types.Value, 0, n)
	for i := 0; i < n; i++ {
		row := make([]types.Value, d.Count(1))
		for j := range row {
			row[j] = d.Value()
		}
		if d.Err() != nil {
			return res
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func appendStrings(a *codec.Appender, ss []string) {
	a.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		a.String(s)
	}
}

func decodeStrings(d *codec.Decoder) []string {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	return out
}

// EncodeResult renders a FrameResult payload.
func EncodeResult(res *Result) []byte { return AppendResult(nil, res) }

// AppendResult appends a FrameResult payload to dst.
func AppendResult(dst []byte, res *Result) []byte {
	a := codec.Appender{B: dst}
	appendResult(&a, res)
	return a.B
}

// DecodeResult parses a FrameResult payload.
func DecodeResult(b []byte) (*Result, error) {
	d := codec.NewDecoder(b)
	res := decodeResult(&d)
	return res, d.Finish()
}

// EncodeExecOK renders a FrameExecOK payload (rows affected).
func EncodeExecOK(n int) []byte {
	var a codec.Appender
	a.Varint(int64(n))
	return a.B
}

// DecodeExecOK parses a FrameExecOK payload.
func DecodeExecOK(b []byte) (int, error) {
	d := codec.NewDecoder(b)
	n := d.Varint()
	return int(n), d.Finish()
}

// SourceRecency is one (source, recency) pair on the wire.
type SourceRecency struct {
	Sid     string
	Recency time.Time
}

// appendPair encodes an instant as Unix nanoseconds in a U64 (a current
// instant takes nine bytes as a varint), with a sentinel for the zero time
// (whose UnixNano is undefined) so zero round-trips exactly — Least/Most
// are zero when a report has no normal sources.
func appendPair(a *codec.Appender, p SourceRecency) {
	a.String(p.Sid)
	ns := int64(math.MinInt64)
	if !p.Recency.IsZero() {
		ns = p.Recency.UnixNano()
	}
	a.U64(uint64(ns))
}

func decodePair(d *codec.Decoder) SourceRecency {
	p := SourceRecency{Sid: d.String()}
	if ns := int64(d.U64()); ns != math.MinInt64 {
		p.Recency = time.Unix(0, ns).UTC()
	}
	return p
}

func appendPairs(a *codec.Appender, ps []SourceRecency) {
	a.Uvarint(uint64(len(ps)))
	for _, p := range ps {
		appendPair(a, p)
	}
}

func decodePairs(d *codec.Decoder) []SourceRecency {
	n := d.Count(9) // a length byte and a U64 at least
	if n == 0 {
		return nil
	}
	out := make([]SourceRecency, n)
	for i := range out {
		out[i] = decodePair(d)
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
	a := codec.Appender{B: dst}
	appendResult(&a, rep.Result)
	a.Bool(rep.Naive)
	a.String(rep.RecencySQL)
	a.Bool(rep.Minimal)
	appendStrings(&a, rep.Reasons)
	a.Bool(rep.Empty)
	appendPairs(&a, rep.Normal)
	appendPairs(&a, rep.Exceptional)
	appendPair(&a, rep.Least)
	appendPair(&a, rep.Most)
	a.Varint(int64(rep.Bound))
	a.String(rep.NormalTable)
	a.String(rep.ExceptionalTable)
	a.Bool(rep.CachedPlan)
	for _, t := range [...]time.Duration{rep.TimingGenerate, rep.TimingUser, rep.TimingRecency, rep.TimingStats} {
		a.Varint(int64(t))
	}
	return a.B
}

// DecodeReport parses a FrameReportData payload.
func DecodeReport(b []byte) (*Report, error) {
	d := codec.NewDecoder(b)
	rep := &Report{Result: decodeResult(&d)}
	rep.Naive = d.Bool()
	rep.RecencySQL = d.String()
	rep.Minimal = d.Bool()
	rep.Reasons = decodeStrings(&d)
	rep.Empty = d.Bool()
	rep.Normal = decodePairs(&d)
	rep.Exceptional = decodePairs(&d)
	rep.Least = decodePair(&d)
	rep.Most = decodePair(&d)
	rep.Bound = time.Duration(d.Varint())
	rep.NormalTable = d.String()
	rep.ExceptionalTable = d.String()
	rep.CachedPlan = d.Bool()
	for _, t := range [...]*time.Duration{&rep.TimingGenerate, &rep.TimingUser, &rep.TimingRecency, &rep.TimingStats} {
		*t = time.Duration(d.Varint())
	}
	return rep, d.Finish()
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
	var a codec.Appender
	a.Uvarint(p.ID)
	a.String(p.RecencySQL)
	a.Bool(p.Minimal)
	a.Bool(p.Empty)
	return a.B
}

// DecodePrepared parses a FramePrepared payload.
func DecodePrepared(b []byte) (Prepared, error) {
	d := codec.NewDecoder(b)
	p := Prepared{ID: d.Uvarint(), RecencySQL: d.String(), Minimal: d.Bool(), Empty: d.Bool()}
	return p, d.Finish()
}

// EncodeError renders a FrameError payload.
func EncodeError(msg string) []byte { return EncodeSQL(msg) }

// DecodeError parses a FrameError payload.
func DecodeError(b []byte) (string, error) { return DecodeSQL(b) }

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
func EncodeBusy(code uint8) []byte { return []byte{code} }

// DecodeBusy parses a FrameBusy payload.
func DecodeBusy(b []byte) (uint8, error) {
	d := codec.NewDecoder(b)
	code := d.Byte()
	return code, d.Finish()
}
