package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"trac/internal/types"
)

// Segment files persist a table's sealed columnar prefix across restarts.
// One file holds the compacted (visibility-filtered) segments written at
// checkpoint time:
//
//	magic "TRACSEG2"
//	column blocks, back to back — one block per (segment, column), each the
//	  encoded ColVec payload with no framing of its own
//	footer payload:
//	  uvarint columnCount, uvarint segmentCount
//	  per segment: uvarint rowCount, then per column:
//	    uvarint blockOffset, uvarint blockLength, uvarint blockCRC32C
//	trailer: uint32 LE footerLength, uint32 LE footerCRC32C, magic "TRACSEGF"
//
// A file stores only what decoding cannot rebuild: the zone maps, codes and
// source sets of a decoded segment are computed from its vectors, as at seal.
//
// Readers locate the footer from the fixed-size trailer, verify its
// checksum, and then fetch individual column blocks with ReadAt, verifying
// each block's CRC on first touch. Opening a database therefore costs one
// footer read per table — O(catalog) — while the data blocks load lazily
// when the table is first scanned (see Table.SetSpill). A torn or
// bit-flipped file fails the trailer, footer, or block checksum instead of
// decoding garbage.
const (
	segMagic        = "TRACSEG2"
	segTrailerMagic = "TRACSEGF"
	segTrailerSize  = 8 + len(segTrailerMagic) // two uint32s + magic
	segMaxFooter    = 1 << 28
)

var segCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// CompactSegments seals rows into fresh segments of up to segSize rows each
// (zone maps recomputed over exactly these rows), without touching any
// table. The checkpoint writer feeds it the visibility-filtered heap, so
// spilled segments carry no dead MVCC versions and their zone statistics
// are exact for the surviving rows.
func CompactSegments(rows []*Row, schema *Schema, segSize int) []*Segment {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	var segs []*Segment
	for len(rows) > 0 {
		n := len(rows)
		if n > segSize {
			n = segSize
		}
		segs = append(segs, sealRows(rows[:n:n], schema))
		rows = rows[n:]
	}
	return segs
}

// countingWriter tracks the absolute file offset during a streaming write.
type countingWriter struct {
	w   *bufio.Writer
	off int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.off += int64(n)
	return n, err
}

// segBlockRef locates one column block in the file.
type segBlockRef struct {
	off, length int64
	crc         uint32
}

// WriteSegmentFile encodes segments onto w in the TRACSEG2 format. The
// caller owns syncing and atomic placement of the underlying file. A value
// of a kind the codec cannot persist (see AppendValue) fails the write.
func WriteSegmentFile(w io.Writer, schema *Schema, segs []*Segment) error {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	if _, err := cw.Write([]byte(segMagic)); err != nil {
		return err
	}
	nCols := schema.NumColumns()
	refs := make([][]segBlockRef, len(segs))
	for si, seg := range segs {
		refs[si] = make([]segBlockRef, nCols)
		for ci := range seg.Cols {
			payload, err := encodeColVec(&seg.Cols[ci], seg.Len())
			if err != nil {
				return err
			}
			refs[si][ci] = segBlockRef{
				off:    cw.off,
				length: int64(len(payload)),
				crc:    crc32.Checksum(payload, segCastagnoli),
			}
			if _, err := cw.Write(payload); err != nil {
				return err
			}
		}
	}

	var footer []byte
	footer = binary.AppendUvarint(footer, uint64(nCols))
	footer = binary.AppendUvarint(footer, uint64(len(segs)))
	for si, seg := range segs {
		footer = binary.AppendUvarint(footer, uint64(seg.Len()))
		for ci := 0; ci < nCols; ci++ {
			ref := refs[si][ci]
			footer = binary.AppendUvarint(footer, uint64(ref.off))
			footer = binary.AppendUvarint(footer, uint64(ref.length))
			footer = binary.AppendUvarint(footer, uint64(ref.crc))
		}
	}
	if _, err := cw.Write(footer); err != nil {
		return err
	}
	var trailer [segTrailerSize]byte
	binary.LittleEndian.PutUint32(trailer[0:4], uint32(len(footer)))
	binary.LittleEndian.PutUint32(trailer[4:8], crc32.Checksum(footer, segCastagnoli))
	copy(trailer[8:], segTrailerMagic)
	if _, err := cw.Write(trailer[:]); err != nil {
		return err
	}
	return cw.w.Flush()
}

// ReadSegmentFile decodes a TRACSEG2 file back into segments, verifying the
// trailer, footer, and every column block checksum, and reconstructing the
// row form, zone maps and codes of each segment. Every count and length is
// held to the bytes that can hold it before anything is allocated for it,
// so a corrupt file costs no more memory than a valid one of its size.
// Recovered rows are stamped as committed by the bootstrap transaction
// (Xmin 1, XminSeq 1): they were visible at the checkpoint snapshot, so they
// are visible to every post-recovery snapshot.
func ReadSegmentFile(r io.ReaderAt, size int64, schema *Schema) ([]*Segment, error) {
	if size < int64(len(segMagic)+segTrailerSize) {
		return nil, fmt.Errorf("storage: segment file too short (%d bytes)", size)
	}
	head := make([]byte, len(segMagic))
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, err
	}
	if string(head) != segMagic {
		return nil, fmt.Errorf("storage: not a TRAC segment file (magic %q)", head)
	}
	trailer := make([]byte, segTrailerSize)
	if _, err := r.ReadAt(trailer, size-int64(segTrailerSize)); err != nil {
		return nil, err
	}
	if string(trailer[8:]) != segTrailerMagic {
		return nil, fmt.Errorf("storage: segment file trailer magic %q", trailer[8:])
	}
	footerLen := int64(binary.LittleEndian.Uint32(trailer[0:4]))
	footerCRC := binary.LittleEndian.Uint32(trailer[4:8])
	footerStart := size - int64(segTrailerSize) - footerLen
	if footerLen > segMaxFooter || footerStart < int64(len(segMagic)) {
		return nil, fmt.Errorf("storage: segment file footer length %d out of range", footerLen)
	}
	footer := make([]byte, footerLen)
	if _, err := r.ReadAt(footer, footerStart); err != nil {
		return nil, err
	}
	if crc32.Checksum(footer, segCastagnoli) != footerCRC {
		return nil, fmt.Errorf("storage: segment file footer checksum mismatch")
	}

	d := &segDecoder{buf: footer}
	nCols := int(d.uvarint())
	nSegs := int(d.uvarint())
	if d.err != nil {
		return nil, fmt.Errorf("storage: corrupt segment footer: %w", d.err)
	}
	if nCols != schema.NumColumns() {
		return nil, fmt.Errorf("storage: segment file has %d columns, schema has %d", nCols, schema.NumColumns())
	}
	if nSegs < 0 || nSegs > segMaxFooter || nSegs > len(d.buf) {
		return nil, fmt.Errorf("storage: segment file claims %d segments", nSegs)
	}
	segs := make([]*Segment, 0, nSegs)
	next := int64(len(segMagic)) // blocks tile the file from the magic to the footer
	for si := 0; si < nSegs; si++ {
		rows := int(d.uvarint())
		if d.err != nil || rows < 0 || rows > segMaxFooter {
			return nil, fmt.Errorf("storage: corrupt segment footer (segment %d)", si)
		}
		cols := make([]ColVec, nCols)
		for ci := 0; ci < nCols; ci++ {
			off := int64(d.uvarint())
			length := int64(d.uvarint())
			crc := uint32(d.uvarint())
			if d.err != nil {
				return nil, fmt.Errorf("storage: corrupt segment footer (segment %d col %d): %w", si, ci, d.err)
			}
			if off != next || length < 0 || off+length > footerStart {
				return nil, fmt.Errorf("storage: segment block %d/%d range [%d,%d) out of place", si, ci, off, off+length)
			}
			next += length
			if int64(rows) > length {
				// Every slot takes at least a byte of its block.
				return nil, fmt.Errorf("storage: segment block %d/%d of %d bytes cannot hold %d rows", si, ci, length, rows)
			}
			block := make([]byte, length)
			if _, err := r.ReadAt(block, off); err != nil {
				return nil, err
			}
			if crc32.Checksum(block, segCastagnoli) != crc {
				return nil, fmt.Errorf("storage: segment block %d/%d checksum mismatch", si, ci)
			}
			if err := decodeColVec(block, rows, schema.Columns[ci].Kind, &cols[ci]); err != nil {
				return nil, fmt.Errorf("storage: segment block %d/%d: %w", si, ci, err)
			}
		}
		segs = append(segs, newSegment(materializeRows(cols, rows), cols, schema))
	}
	if next != footerStart {
		return nil, fmt.Errorf("storage: segment blocks end at %d, the footer starts at %d", next, footerStart)
	}
	return segs, nil
}

// materializeRows rebuilds the row form of a decoded segment, stamped
// committed-at-bootstrap (see ReadSegmentFile).
func materializeRows(cols []ColVec, n int) []*Row {
	tuples := make([][]types.Value, n)
	for i := range tuples {
		values := make([]types.Value, len(cols))
		for ci := range cols {
			values[ci] = cols[ci].Value(i)
		}
		tuples[i] = values
	}
	return BootstrapRows(tuples)
}

// ---------------------------------------------------------------------------
// column block codec

// encodeColVec serializes one column of one segment.
func encodeColVec(c *ColVec, n int) ([]byte, error) {
	var b []byte
	b = append(b, byte(c.Kind))
	if c.Pure {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	if !c.Pure {
		var err error
		for i := 0; i < n && err == nil; i++ {
			b, err = AppendValue(b, c.Vals[i])
		}
		return b, err
	}
	// Null bitmap, then the typed payload with null slots zeroed.
	bitmap := make([]byte, (n+7)/8)
	for i, isNull := range c.Nulls {
		if isNull {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	b = append(b, bitmap...)
	switch c.Kind {
	case types.KindInt, types.KindTime, types.KindBool:
		for i := 0; i < n; i++ {
			b = binary.LittleEndian.AppendUint64(b, uint64(c.I64[i]))
		}
	case types.KindFloat:
		for i := 0; i < n; i++ {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.F64[i]))
		}
	case types.KindString:
		for i := 0; i < n; i++ {
			b = binary.AppendUvarint(b, uint64(len(c.Str[i])))
			b = append(b, c.Str[i]...)
		}
	}
	return b, nil
}

// decodeColVec rebuilds one column from its block payload.
func decodeColVec(b []byte, n int, want types.Kind, c *ColVec) error {
	d := &segDecoder{buf: b}
	kind := types.Kind(d.byte())
	pure := d.byte() == 1
	if d.err != nil {
		return d.err
	}
	if kind != want {
		return fmt.Errorf("column kind %v, schema says %v", kind, want)
	}
	c.Kind = kind
	c.Pure = pure
	c.Nulls = make([]bool, n)
	if !pure {
		c.Vals = make([]types.Value, n)
		for i := 0; i < n; i++ {
			c.Vals[i] = d.value()
			if c.Vals[i].IsNull() {
				c.Nulls[i] = true
			}
		}
		return d.err
	}
	bitmap := d.bytes((n + 7) / 8)
	if d.err != nil {
		return d.err
	}
	for i := 0; i < n; i++ {
		c.Nulls[i] = bitmap[i/8]&(1<<(i%8)) != 0
	}
	switch kind {
	case types.KindInt, types.KindTime, types.KindBool:
		c.I64 = make([]int64, n)
		for i := 0; i < n; i++ {
			c.I64[i] = int64(d.u64())
		}
	case types.KindFloat:
		c.F64 = make([]float64, n)
		for i := 0; i < n; i++ {
			c.F64[i] = math.Float64frombits(d.u64())
		}
	case types.KindString:
		c.Str = make([]string, n)
		for i := 0; i < n; i++ {
			c.Str[i] = string(d.lenBytes())
		}
	default:
		return fmt.Errorf("pure column with unexpected kind %v", kind)
	}
	return d.err
}

// ---------------------------------------------------------------------------
// value codec, shared with the engine's checkpoint dump

// AppendValue appends the encoding of v to b: its kind byte, then a byte for
// BOOLEAN, a varint for BIGINT and for TIMESTAMP (nanoseconds), the IEEE
// bits little-endian for DOUBLE, a uvarint length and the bytes for TEXT,
// and nothing for NULL. A value of any other kind cannot be persisted.
func AppendValue(b []byte, v types.Value) ([]byte, error) {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case types.KindNull:
	case types.KindBool:
		if v.Bool() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case types.KindInt:
		b = binary.AppendVarint(b, v.Int())
	case types.KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case types.KindString:
		b = binary.AppendUvarint(b, uint64(len(v.Str())))
		b = append(b, v.Str()...)
	case types.KindTime:
		b = binary.AppendVarint(b, v.TimeNanos())
	default:
		return b, fmt.Errorf("storage: cannot persist value kind %v", v.Kind())
	}
	return b, nil
}

// ValueReader is what ReadValue decodes from: a *bufio.Reader over a stream,
// or a *bytes.Reader over bytes in memory.
type ValueReader interface {
	io.Reader
	io.ByteReader
}

// maxValueLen bounds the length of a TEXT value ReadValue accepts.
const maxValueLen = 1 << 30

// ReadValue decodes one value AppendValue encoded. A TEXT length over
// maxValueLen, or over the bytes r has left when r can tell (it has a Len
// method, like a *bytes.Reader), fails before anything is allocated for it.
func ReadValue(r ValueReader) (types.Value, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return types.Null, err
	}
	switch types.Kind(kind) {
	case types.KindNull:
		return types.Null, nil
	case types.KindBool:
		b, err := r.ReadByte()
		return types.NewBool(b == 1), err
	case types.KindInt:
		i, err := binary.ReadVarint(r)
		return types.NewInt(i), err
	case types.KindFloat:
		var buf [8]byte
		_, err := io.ReadFull(r, buf[:])
		return types.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), err
	case types.KindString:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return types.Null, err
		}
		if left, ok := r.(interface{ Len() int }); n > maxValueLen || ok && n > uint64(left.Len()) {
			return types.Null, fmt.Errorf("storage: corrupt value (TEXT length %d)", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return types.Null, err
		}
		return types.NewString(string(buf)), nil
	case types.KindTime:
		ns, err := binary.ReadVarint(r)
		return types.NewTimeNanos(ns), err
	default:
		return types.Null, fmt.Errorf("storage: corrupt value (kind %d)", kind)
	}
}

// segDecoder reads the footer and column block encodings with sticky error
// handling.
type segDecoder struct {
	buf []byte
	err error
}

func (d *segDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated or corrupt %s", what)
	}
}

func (d *segDecoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail("byte")
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *segDecoder) bytes(n int) []byte {
	if d.err != nil || n < 0 || len(d.buf) < n {
		d.fail("bytes")
		return nil
	}
	v := d.buf[:n]
	d.buf = d.buf[n:]
	return v
}

func (d *segDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *segDecoder) u64() uint64 {
	b := d.bytes(8)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *segDecoder) lenBytes() []byte {
	n := d.uvarint()
	if d.err != nil || n > segMaxFooter {
		d.fail("length-prefixed bytes")
		return nil
	}
	return d.bytes(int(n))
}

func (d *segDecoder) value() types.Value {
	if d.err != nil {
		return types.Null
	}
	r := bytes.NewReader(d.buf)
	v, err := ReadValue(r)
	if err != nil {
		d.fail("value")
		return types.Null
	}
	d.buf = d.buf[len(d.buf)-r.Len():]
	return v
}
