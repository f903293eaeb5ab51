package server

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"trac/internal/codec"
	"trac/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xAB}, 4096)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, FrameQuery, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		ft, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if ft != FrameQuery {
			t.Fatalf("frame type = %v, want Query", ft)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload mismatch: %d vs %d bytes", len(got), len(p))
		}
	}
}

// TestReadFrameIntoReusesTheBuffer: a payload that fits the caller's buffer
// is read into it, a larger one gets a buffer of its own, and the next read
// overwrites what the last one returned — the contract the connection loop
// relies on and must not outlive.
func TestReadFrameIntoReusesTheBuffer(t *testing.T) {
	var stream bytes.Buffer
	payloads := [][]byte{[]byte("first"), nil, bytes.Repeat([]byte{0xAB}, 100), []byte("last")}
	for _, p := range payloads {
		if err := WriteFrame(&stream, FrameQuery, p); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 16)
	var prev []byte
	for i, want := range payloads {
		_, got, err := ReadFrameInto(&stream, buf, MaxFrameSize)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %q (%v), want %q", i, got, err, want)
		}
		fits := len(want) <= cap(buf)
		if aliases := cap(got) > 0 && &got[:1][0] == &buf[:1][0]; aliases != fits {
			t.Fatalf("frame %d (%d bytes, buffer %d): payload aliases the buffer = %v", i, len(want), cap(buf), aliases)
		}
		if cap(got) > cap(buf) {
			buf = got[:0] // what the connection loop does: keep the grown buffer
		}
		prev = got
	}
	if cap(buf) < 100 || string(prev) != "last" {
		t.Fatalf("buffer cap %d after a 100-byte frame, last payload %q", cap(buf), prev)
	}
}

func TestReadFrameRejectsUnknownType(t *testing.T) {
	for _, b := range []byte{0, byte(frameMax), 0xFF} {
		buf := bytes.NewReader([]byte{b, 0, 0, 0, 0})
		if _, _, err := ReadFrame(buf); err == nil {
			t.Fatalf("frame type %d accepted", b)
		}
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	// Claims a 1 GiB payload; must be refused before allocation.
	var hdr [5]byte
	hdr[0] = byte(FrameQuery)
	hdr[1], hdr[2], hdr[3], hdr[4] = 0x40, 0, 0, 0
	if _, _, err := ReadFrameInto(bytes.NewReader(hdr[:]), nil, 1<<20); err == nil {
		t.Fatal("oversized length accepted")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FramePing, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for n := 1; n < len(whole); n++ {
		if _, _, err := ReadFrame(bytes.NewReader(whole[:n])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", n)
		}
	}
}

func TestHelloWelcomeRoundTrip(t *testing.T) {
	h := Hello{Version: ProtocolVersion, Token: "s3cret-token"}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("Hello round trip: %+v != %+v", got, h)
	}
	w := Welcome{Version: ProtocolVersion, Server: "trac-server", Shards: 4}
	gotW, err := DecodeWelcome(EncodeWelcome(w))
	if err != nil {
		t.Fatal(err)
	}
	if gotW != w {
		t.Fatalf("Welcome round trip: %+v != %+v", gotW, w)
	}
}

func TestSQLAndStmtIDRoundTrip(t *testing.T) {
	sql := `SELECT mach_id FROM Activity WHERE value = 'idle' -- π∆`
	got, err := DecodeSQL(EncodeSQL(sql))
	if err != nil {
		t.Fatal(err)
	}
	if got != sql {
		t.Fatalf("SQL round trip: %q", got)
	}
	id, err := DecodeStmtID(EncodeStmtID(math.MaxUint64))
	if err != nil {
		t.Fatal(err)
	}
	if id != math.MaxUint64 {
		t.Fatalf("stmt id round trip: %d", id)
	}
}

func TestReportRequestRoundTrip(t *testing.T) {
	rq := ReportRequest{
		SQL:  "SELECT 1",
		Opts: ReportOpts{Flags: OptNaive | OptMADDetector, ZThreshold: 2.5},
	}
	got, err := DecodeReportRequest(EncodeReportRequest(rq))
	if err != nil {
		t.Fatal(err)
	}
	if got != rq {
		t.Fatalf("ReportRequest round trip: %+v != %+v", got, rq)
	}
}

func sampleResult() *Result {
	ts := time.Date(2006, 3, 15, 14, 20, 5, 0, time.UTC)
	return &Result{
		Columns:    []string{"mach_id", "n", "score", "ok", "seen", "gap"},
		Parallel:   3,
		Vectorized: true,
		Rows: [][]types.Value{
			{types.NewString("m1"), types.NewInt(-7), types.NewFloat(1.25),
				types.NewBool(true), types.NewTime(ts), types.Null},
			{types.NewString(""), types.NewInt(math.MaxInt64), types.NewFloat(math.Inf(-1)),
				types.NewBool(false), types.NewTime(ts.Add(time.Nanosecond)), types.Null},
		},
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := sampleResult()
	got, err := DecodeResult(EncodeResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if appended := AppendResult([]byte("kept"), res); !bytes.Equal(appended, append([]byte("kept"), EncodeResult(res)...)) {
		t.Fatal("AppendResult does not append EncodeResult's bytes to dst")
	}
	if !reflect.DeepEqual(got.Columns, res.Columns) || got.Parallel != res.Parallel ||
		got.Vectorized != res.Vectorized || len(got.Rows) != len(res.Rows) {
		t.Fatalf("Result header mismatch: %+v", got)
	}
	for i, row := range res.Rows {
		for j, v := range row {
			g := got.Rows[i][j]
			if g.Kind() != v.Kind() || g.SQL() != v.SQL() {
				t.Fatalf("row %d col %d: %v != %v", i, j, g, v)
			}
		}
	}
}

func TestEmptyResultRoundTrip(t *testing.T) {
	res := &Result{Columns: []string{"a"}}
	got, err := DecodeResult(EncodeResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 || len(got.Columns) != 1 {
		t.Fatalf("empty result round trip: %+v", got)
	}
}

func TestReportRoundTrip(t *testing.T) {
	ts := time.Date(2006, 3, 15, 14, 20, 5, 0, time.UTC)
	rep := &Report{
		Result:           sampleResult(),
		RecencySQL:       "SELECT DISTINCT mach_id FROM Activity",
		Minimal:          true,
		Reasons:          []string{"projection widened", "no domain for value"},
		Normal:           []SourceRecency{{Sid: "m1", Recency: ts}, {Sid: "m2", Recency: ts.Add(time.Hour)}},
		Exceptional:      []SourceRecency{{Sid: "m9", Recency: ts.Add(-48 * time.Hour)}},
		Least:            SourceRecency{Sid: "m1", Recency: ts},
		Most:             SourceRecency{Sid: "m2", Recency: ts.Add(time.Hour)},
		Bound:            time.Hour,
		NormalTable:      "sys_temp_1",
		ExceptionalTable: "sys_temp_2",
		CachedPlan:       true,
		TimingGenerate:   123 * time.Microsecond,
		TimingUser:       456 * time.Microsecond,
		TimingRecency:    789 * time.Microsecond,
		TimingStats:      12 * time.Microsecond,
	}
	got, err := DecodeReport(EncodeReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	if appended := AppendReport([]byte("kept"), rep); !bytes.Equal(appended, append([]byte("kept"), EncodeReport(rep)...)) {
		t.Fatal("AppendReport does not append EncodeReport's bytes to dst")
	}
	// Zero out the result for struct equality (validated separately above).
	got.Result, rep.Result = nil, nil
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("Report round trip:\n got %+v\nwant %+v", got, rep)
	}
}

func TestZeroTimeRoundTrip(t *testing.T) {
	// Least/Most are zero-valued when a report has no normal sources; the
	// zero time must survive the trip (UnixNano alone would mangle it).
	rep := &Report{Result: &Result{}, Empty: true}
	got, err := DecodeReport(EncodeReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Least.Recency.IsZero() || !got.Most.Recency.IsZero() {
		t.Fatalf("zero time mangled: least=%v most=%v", got.Least.Recency, got.Most.Recency)
	}
	if !got.Empty {
		t.Fatal("Empty flag lost")
	}
}

func TestPreparedErrorBusyRoundTrip(t *testing.T) {
	p := Prepared{ID: 42, RecencySQL: "SELECT DISTINCT sid FROM T", Minimal: true}
	gotP, err := DecodePrepared(EncodePrepared(p))
	if err != nil {
		t.Fatal(err)
	}
	if gotP != p {
		t.Fatalf("Prepared round trip: %+v", gotP)
	}
	msg, err := DecodeError(EncodeError("table Activity does not exist"))
	if err != nil || msg != "table Activity does not exist" {
		t.Fatalf("Error round trip: %q, %v", msg, err)
	}
	for _, code := range []uint8{BusyQueueFull, BusyExpired, BusyQuota, BusyDraining} {
		got, err := DecodeBusy(EncodeBusy(code))
		if err != nil || got != code {
			t.Fatalf("Busy round trip: %d, %v", got, err)
		}
		if strings.HasPrefix(BusyReason(code), "busy(") {
			t.Fatalf("Busy code %d has no reason string", code)
		}
	}
	n, err := DecodeExecOK(EncodeExecOK(12345))
	if err != nil || n != 12345 {
		t.Fatalf("ExecOK round trip: %d, %v", n, err)
	}
}

// TestDecodeRejectsTrailingGarbage: every decoder must consume its payload
// exactly; trailing bytes indicate a framing bug or hostile peer.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"Hello":         func(b []byte) error { _, err := DecodeHello(b); return err },
		"Welcome":       func(b []byte) error { _, err := DecodeWelcome(b); return err },
		"SQL":           func(b []byte) error { _, err := DecodeSQL(b); return err },
		"ReportRequest": func(b []byte) error { _, err := DecodeReportRequest(b); return err },
		"StmtID":        func(b []byte) error { _, err := DecodeStmtID(b); return err },
		"Result":        func(b []byte) error { _, err := DecodeResult(b); return err },
		"Report":        func(b []byte) error { _, err := DecodeReport(b); return err },
		"Prepared":      func(b []byte) error { _, err := DecodePrepared(b); return err },
		"Error":         func(b []byte) error { _, err := DecodeError(b); return err },
		"Busy":          func(b []byte) error { _, err := DecodeBusy(b); return err },
		"ExecOK":        func(b []byte) error { _, err := DecodeExecOK(b); return err },
	}
	encoded := map[string][]byte{
		"Hello":         EncodeHello(Hello{Version: 1, Token: "t"}),
		"Welcome":       EncodeWelcome(Welcome{Version: 1, Server: "s", Shards: 1}),
		"SQL":           EncodeSQL("SELECT 1"),
		"ReportRequest": EncodeReportRequest(ReportRequest{SQL: "SELECT 1"}),
		"StmtID":        EncodeStmtID(7),
		"Result":        EncodeResult(sampleResult()),
		"Report":        EncodeReport(&Report{Result: &Result{}}),
		"Prepared":      EncodePrepared(Prepared{ID: 1}),
		"Error":         EncodeError("boom"),
		"Busy":          EncodeBusy(BusyQuota),
		"ExecOK":        EncodeExecOK(1),
	}
	for name, dec := range decoders {
		if err := dec(encoded[name]); err != nil {
			t.Fatalf("%s: clean payload rejected: %v", name, err)
		}
		if err := dec(append(append([]byte{}, encoded[name]...), 0xEE)); err == nil {
			t.Fatalf("%s: trailing byte accepted", name)
		}
	}
}

// TestDecodeHostileLengthClaims: element counts far beyond the payload size
// must be refused before allocation, not trusted.
func TestDecodeHostileLengthClaims(t *testing.T) {
	// Result claiming 2^31 rows in an 8-byte payload.
	var a codec.Appender
	a.Uvarint(0)          // parallel
	a.Bool(false)         // vectorized
	a.Uvarint(0)          // zero columns
	a.Uvarint(0x7FFFFFFF) // absurd row count
	if _, err := DecodeResult(a.B); err == nil {
		t.Fatal("absurd row count accepted")
	}
	// String length claim exceeding the payload.
	var a2 codec.Appender
	a2.Uvarint(0xFFFFFF00)
	if _, err := DecodeSQL(a2.B); err == nil {
		t.Fatal("absurd string length accepted")
	}
}

// FuzzReadFrame: arbitrary bytes through the frame reader must never panic
// or over-allocate; on success the reported payload length is consistent.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, FrameQuery, EncodeSQL("SELECT 1"))
	f.Add(seed.Bytes())
	f.Add([]byte{byte(FrameHello), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		ft, payload, err := ReadFrameInto(r, nil, 1<<16)
		if err != nil {
			return
		}
		if ft == frameInvalid || ft >= frameMax {
			t.Fatalf("invalid type %d returned without error", ft)
		}
		if len(payload) > 1<<16 {
			t.Fatalf("payload %d exceeds limit", len(payload))
		}
	})
}

// FuzzDecodePayloads: arbitrary bytes through every payload decoder must
// never panic; successful decodes must re-encode without error.
func FuzzDecodePayloads(f *testing.F) {
	f.Add(uint8(0), EncodeReport(&Report{Result: sampleResult()}))
	f.Add(uint8(1), EncodeResult(sampleResult()))
	f.Add(uint8(2), EncodeReportRequest(ReportRequest{SQL: "SELECT 1"}))
	f.Add(uint8(3), EncodeHello(Hello{Version: 1, Token: "x"}))
	f.Add(uint8(4), EncodePrepared(Prepared{ID: 9}))
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		switch which % 5 {
		case 0:
			if rep, err := DecodeReport(data); err == nil {
				EncodeReport(rep)
			}
		case 1:
			if res, err := DecodeResult(data); err == nil {
				EncodeResult(res)
			}
		case 2:
			DecodeReportRequest(data)
		case 3:
			DecodeHello(data)
		case 4:
			DecodePrepared(data)
		}
	})
}

// TestReadFrameEOF: a cleanly closed stream yields io.EOF, which the
// connection layer treats as a normal disconnect.
func TestReadFrameEOF(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}
