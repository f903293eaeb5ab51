// Package codec is the one binary encoding behind every byte format the
// repo writes: the wire protocol's payloads, the checkpoint dump, the
// manifest and the segment files. An Appender encodes; a Decoder decodes a
// byte slice with a sticky error and checks every claimed length and count
// against the bytes that remain before anything is allocated for it, so a
// corrupt or hostile input costs no more memory than its own size. Seal and
// Open frame a whole file as magic, body and a CRC32C trailer.
//
// Integers are varints (uvarint for lengths and counts), fixed-width words
// are little-endian, a string is its uvarint length and its bytes, and a
// bool is one byte, 0 or 1. A value is its kind byte, then nothing for
// NULL, a bool byte for BOOLEAN, a varint for BIGINT and for TIMESTAMP
// (Unix nanoseconds), the IEEE bits as a u64 for DOUBLE, and a string for
// TEXT.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"trac/internal/types"
)

// Castagnoli is the CRC32C table of every checksummed format.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, Castagnoli) }

// Appender appends encodings to B.
type Appender struct{ B []byte }

// Byte appends one byte.
func (a *Appender) Byte(v byte) { a.B = append(a.B, v) }

// Bool appends 1 for true and 0 for false.
func (a *Appender) Bool(v bool) {
	if v {
		a.B = append(a.B, 1)
	} else {
		a.B = append(a.B, 0)
	}
}

// Uvarint appends v as a uvarint.
func (a *Appender) Uvarint(v uint64) {
	if v < 0x80 { // most lengths and counts: one byte, no loop
		a.B = append(a.B, byte(v))
		return
	}
	a.B = binary.AppendUvarint(a.B, v)
}

// Varint appends v as a zig-zag varint.
func (a *Appender) Varint(v int64) { a.Uvarint(uint64(v<<1) ^ uint64(v>>63)) }

// U64 appends v as eight little-endian bytes.
func (a *Appender) U64(v uint64) { a.B = binary.LittleEndian.AppendUint64(a.B, v) }

// Float64 appends the IEEE bits of v as a U64.
func (a *Appender) Float64(v float64) { a.U64(math.Float64bits(v)) }

// String appends s's length as a uvarint, then s.
func (a *Appender) String(s string) {
	a.Uvarint(uint64(len(s)))
	a.B = append(a.B, s...)
}

// Value appends v: its kind byte, then its payload (see the package
// comment).
func (a *Appender) Value(v types.Value) {
	a.Byte(byte(v.Kind()))
	switch v.Kind() {
	case types.KindBool:
		a.Bool(v.Bool())
	case types.KindInt:
		a.Varint(v.Int())
	case types.KindFloat:
		a.Float64(v.Float())
	case types.KindString:
		a.String(v.Str())
	case types.KindTime:
		a.Varint(v.TimeNanos())
	}
}

// Decoder decodes the bytes an Appender wrote. The first failure sticks:
// it drops the unread input, so every later read returns a zero value, and
// Err and Finish report it.
type Decoder struct {
	b   []byte
	i   int // the next byte to read; reads move an offset, not the slice
	err error
}

// NewDecoder decodes b. The byte slices Take hands out alias b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

var errShort = errors.New("codec: input ends inside a field")

// Err is the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.i = len(d.b)
}

// Fail records a failure unless one is already recorded; callers use it to
// reject what decodes but does not make sense.
func (d *Decoder) Fail(format string, args ...any) {
	d.fail(fmt.Errorf("codec: "+format, args...))
}

// Finish is Err, or an error when bytes remain unread: trailing bytes mean
// a framing bug or a hostile peer.
func (d *Decoder) Finish() error {
	if left := len(d.b) - d.i; left != 0 {
		d.Fail("%d trailing bytes", left)
	}
	return d.err
}

// Take reads n raw bytes, aliasing the input.
func (d *Decoder) Take(n int) []byte {
	if n < 0 || n > len(d.b)-d.i {
		d.fail(errShort)
		return nil
	}
	d.i += n
	return d.b[d.i-n : d.i : d.i]
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.i >= len(d.b) {
		d.fail(errShort)
		return 0
	}
	d.i++
	return d.b[d.i-1]
}

// Bool reads a byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if b > 1 {
		d.Fail("bool byte %d", b)
	}
	return b == 1
}

// Uvarint reads a uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.i < len(d.b) && d.b[d.i] < 0x80 { // one byte: most lengths and counts
		d.i++
		return uint64(d.b[d.i-1])
	}
	return d.longUvarint()
}

func (d *Decoder) longUvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 {
		d.fail(errShort) // or longer than 64 bits
		return 0
	}
	d.i += n
	return v
}

// Varint reads a zig-zag varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// U64 reads eight little-endian bytes.
func (d *Decoder) U64() uint64 {
	if len(d.b)-d.i < 8 {
		d.fail(errShort)
		return 0
	}
	d.i += 8
	return binary.LittleEndian.Uint64(d.b[d.i-8:])
}

// Float64 reads a float Appender.Float64 wrote.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.U64()) }

// Count reads a uvarint element count and rejects one that the remaining
// bytes cannot hold at minElemSize (at least 1) bytes an element, so the
// caller may allocate for the count it returns.
func (d *Decoder) Count(minElemSize int) int {
	n := d.Uvarint()
	if n > uint64((len(d.b)-d.i)/minElemSize) {
		d.overclaim(n)
		return 0
	}
	return int(n)
}

func (d *Decoder) overclaim(n uint64) {
	d.Fail("claimed %d elements exceed %d remaining bytes", n, len(d.b)-d.i)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Take(d.Count(1))) }

// Value reads a value Appender.Value wrote.
func (d *Decoder) Value() types.Value {
	switch k := types.Kind(d.Byte()); k {
	case types.KindNull:
		return types.Null
	case types.KindBool:
		return types.NewBool(d.Bool())
	case types.KindInt:
		return types.NewInt(d.Varint())
	case types.KindFloat:
		return types.NewFloat(d.Float64())
	case types.KindString:
		return types.NewString(d.String())
	case types.KindTime:
		return types.NewTimeNanos(d.Varint())
	default:
		d.Fail("value kind %d", k)
		return types.Null
	}
}

// sumLen is the size of the CRC32C trailer Seal appends.
const sumLen = 4

// Seal frames a file: magic, body, then the CRC32C of both as a
// little-endian u32.
func Seal(magic string, body []byte) []byte {
	file := make([]byte, 0, len(magic)+len(body)+sumLen)
	file = append(append(file, magic...), body...)
	return binary.LittleEndian.AppendUint32(file, Checksum(file))
}

// Open checks a file Seal framed and returns its body, aliasing file.
func Open(magic string, file []byte) ([]byte, error) {
	if len(file) < len(magic)+sumLen {
		return nil, fmt.Errorf("codec: %d bytes cannot hold a sealed %q file", len(file), magic)
	}
	data, sum := file[:len(file)-sumLen], file[len(file)-sumLen:]
	if Checksum(data) != binary.LittleEndian.Uint32(sum) {
		return nil, errors.New("codec: checksum mismatch")
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("codec: bad magic %q, want %q", data[:len(magic)], magic)
	}
	return data[len(magic):], nil
}
