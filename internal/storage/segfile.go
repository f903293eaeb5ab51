package storage

import (
	"bufio"
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
//	magic "TRACSEG1"
//	column blocks, back to back — one block per (segment, column), each the
//	  encoded ColVec payload with no framing of its own
//	footer payload:
//	  uvarint columnCount, uvarint segmentCount
//	  per segment: uvarint rowCount, then per column:
//	    uvarint blockOffset, uvarint blockLength, uvarint blockCRC32C
//	    zone map (bounds, null count, sums, source set)
//	trailer: uint32 LE footerLength, uint32 LE footerCRC32C, magic "TRACSEGF"
//
// Readers locate the footer from the fixed-size trailer, verify its
// checksum, and then fetch individual column blocks with ReadAt, verifying
// each block's CRC on first touch. Opening a database therefore costs one
// footer read per table — O(catalog) — while the data blocks load lazily
// when the table is first scanned (see Table.SetSpill). A torn or
// bit-flipped file fails the trailer, footer, or block checksum instead of
// decoding garbage.
const (
	segMagic        = "TRACSEG1"
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

// WriteSegmentFile encodes segments onto w in the TRACSEG1 format. The
// caller owns syncing and atomic placement of the underlying file.
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
			payload := encodeColVec(&seg.Cols[ci], seg.Len())
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
			footer = appendZoneMap(footer, &seg.Zones[ci])
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

// ReadSegmentFile decodes a TRACSEG1 file back into segments, verifying the
// trailer, footer, and every column block checksum, and reconstructing the
// row form of each segment. Recovered rows are stamped as committed by the
// bootstrap transaction (Xmin 1, XminSeq 1): they were visible at the
// checkpoint snapshot, so they are visible to every post-recovery snapshot.
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
	if nSegs < 0 || nSegs > segMaxFooter {
		return nil, fmt.Errorf("storage: segment file claims %d segments", nSegs)
	}
	segs := make([]*Segment, 0, nSegs)
	for si := 0; si < nSegs; si++ {
		rows := int(d.uvarint())
		if d.err != nil || rows < 0 || rows > segMaxFooter {
			return nil, fmt.Errorf("storage: corrupt segment footer (segment %d)", si)
		}
		seg := &Segment{
			Cols:  make([]ColVec, nCols),
			Zones: make([]ZoneMap, nCols),
		}
		for ci := 0; ci < nCols; ci++ {
			off := int64(d.uvarint())
			length := int64(d.uvarint())
			crc := uint32(d.uvarint())
			d.zoneMap(&seg.Zones[ci])
			if d.err != nil {
				return nil, fmt.Errorf("storage: corrupt segment footer (segment %d col %d): %w", si, ci, d.err)
			}
			if off < int64(len(segMagic)) || length < 0 || off+length > footerStart {
				return nil, fmt.Errorf("storage: segment block %d/%d range [%d,%d) out of bounds", si, ci, off, off+length)
			}
			block := make([]byte, length)
			if _, err := r.ReadAt(block, off); err != nil {
				return nil, err
			}
			if crc32.Checksum(block, segCastagnoli) != crc {
				return nil, fmt.Errorf("storage: segment block %d/%d checksum mismatch", si, ci)
			}
			if err := decodeColVec(block, rows, schema.Columns[ci].Kind, &seg.Cols[ci]); err != nil {
				return nil, fmt.Errorf("storage: segment block %d/%d: %w", si, ci, err)
			}
		}
		seg.code(schema)
		seg.Rows = materializeRows(seg.Cols, rows)
		segs = append(segs, seg)
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
func encodeColVec(c *ColVec, n int) []byte {
	var b []byte
	b = append(b, byte(c.Kind))
	if c.Pure {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	if !c.Pure {
		for i := 0; i < n; i++ {
			b = appendValue(b, c.Vals[i])
		}
		return b
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
	return b
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
// zone map codec

const (
	zoneFlagOrdered     = 1 << 0
	zoneFlagSumValid    = 1 << 1
	zoneFlagSumIntExact = 1 << 2
	zoneFlagHasSources  = 1 << 3
)

func appendZoneMap(b []byte, z *ZoneMap) []byte {
	var flags byte
	if z.Ordered {
		flags |= zoneFlagOrdered
	}
	if z.SumValid {
		flags |= zoneFlagSumValid
	}
	if z.SumIntExact {
		flags |= zoneFlagSumIntExact
	}
	if z.Sources != nil {
		flags |= zoneFlagHasSources
	}
	b = append(b, flags)
	b = appendValue(b, z.Min)
	b = appendValue(b, z.Max)
	b = binary.AppendUvarint(b, uint64(z.NullCount))
	if z.SumValid {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(z.Sum))
	}
	if z.SumIntExact {
		b = binary.AppendVarint(b, z.SumInt)
	}
	if z.Sources != nil {
		b = binary.AppendUvarint(b, uint64(len(z.Sources)))
		for _, s := range z.Sources {
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
	}
	return b
}

func (d *segDecoder) zoneMap(z *ZoneMap) {
	flags := d.byte()
	z.Ordered = flags&zoneFlagOrdered != 0
	z.SumValid = flags&zoneFlagSumValid != 0
	z.SumIntExact = flags&zoneFlagSumIntExact != 0
	z.Min = d.value()
	z.Max = d.value()
	z.NullCount = int(d.uvarint())
	if z.SumValid {
		z.Sum = math.Float64frombits(d.u64())
	}
	if z.SumIntExact {
		z.SumInt = d.varint()
	}
	if flags&zoneFlagHasSources != 0 {
		n := int(d.uvarint())
		if d.err != nil || n < 0 || n > MaxZoneSources {
			d.fail("zone source count")
			return
		}
		z.Sources = make([]string, n)
		for i := range z.Sources {
			z.Sources[i] = string(d.lenBytes())
		}
	}
}

// ---------------------------------------------------------------------------
// value codec (storage-local mirror of the dump encoding)

func appendValue(b []byte, v types.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
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
	}
	return b
}

// segDecoder reads the footer/value encodings with sticky error handling.
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

func (d *segDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("varint")
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
	switch types.Kind(d.byte()) {
	case types.KindNull:
		return types.Null
	case types.KindBool:
		return types.NewBool(d.byte() == 1)
	case types.KindInt:
		return types.NewInt(d.varint())
	case types.KindFloat:
		return types.NewFloat(math.Float64frombits(d.u64()))
	case types.KindString:
		return types.NewString(string(d.lenBytes()))
	case types.KindTime:
		return types.NewTimeNanos(d.varint())
	default:
		d.fail("value kind")
		return types.Null
	}
}
