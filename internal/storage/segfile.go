package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"trac/internal/codec"
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

// WriteSegmentFile encodes segments onto w in the TRACSEG2 format. The
// caller owns syncing and atomic placement of the underlying file.
func WriteSegmentFile(w io.Writer, schema *Schema, segs []*Segment) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(segMagic)
	off := len(segMagic)
	var footer, block codec.Appender
	footer.Uvarint(uint64(schema.NumColumns()))
	footer.Uvarint(uint64(len(segs)))
	for _, seg := range segs {
		footer.Uvarint(uint64(seg.Len()))
		for ci := range seg.Cols {
			block.B = block.B[:0]
			encodeColVec(&block, &seg.Cols[ci], seg.Len())
			footer.Uvarint(uint64(off))
			footer.Uvarint(uint64(len(block.B)))
			footer.Uvarint(uint64(codec.Checksum(block.B)))
			bw.Write(block.B)
			off += len(block.B)
		}
	}
	bw.Write(footer.B)
	var trailer [segTrailerSize]byte
	binary.LittleEndian.PutUint32(trailer[0:4], uint32(len(footer.B)))
	binary.LittleEndian.PutUint32(trailer[4:8], codec.Checksum(footer.B))
	copy(trailer[8:], segTrailerMagic)
	bw.Write(trailer[:])
	return bw.Flush() // a bufio.Writer keeps its first write error
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
	if codec.Checksum(footer) != footerCRC {
		return nil, fmt.Errorf("storage: segment file footer checksum mismatch")
	}

	d := codec.NewDecoder(footer)
	if nCols := d.Uvarint(); d.Err() == nil && nCols != uint64(schema.NumColumns()) {
		return nil, fmt.Errorf("storage: segment file has %d columns, schema has %d", nCols, schema.NumColumns())
	}
	nCols := schema.NumColumns()
	nSegs := d.Count(1 + 3*nCols) // a row count and three numbers a block
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("storage: corrupt segment footer: %w", err)
	}
	segs := make([]*Segment, 0, nSegs)
	next := int64(len(segMagic)) // blocks tile the file from the magic to the footer
	for si := 0; si < nSegs; si++ {
		rows := d.Uvarint()
		cols := make([]ColVec, nCols)
		for ci := 0; ci < nCols; ci++ {
			off, length, crc := d.Uvarint(), d.Uvarint(), d.Uvarint()
			if err := d.Err(); err != nil {
				return nil, fmt.Errorf("storage: corrupt segment footer (segment %d col %d): %w", si, ci, err)
			}
			if off != uint64(next) || length > uint64(footerStart-next) {
				return nil, fmt.Errorf("storage: segment block %d/%d range [%d,+%d) out of place", si, ci, off, length)
			}
			next += int64(length)
			if rows > length {
				// Every slot takes at least a byte of its block.
				return nil, fmt.Errorf("storage: segment block %d/%d of %d bytes cannot hold %d rows", si, ci, length, rows)
			}
			block := make([]byte, length)
			if _, err := r.ReadAt(block, int64(off)); err != nil {
				return nil, err
			}
			if codec.Checksum(block) != uint32(crc) {
				return nil, fmt.Errorf("storage: segment block %d/%d checksum mismatch", si, ci)
			}
			if err := decodeColVec(block, int(rows), schema.Columns[ci].Kind, &cols[ci]); err != nil {
				return nil, fmt.Errorf("storage: segment block %d/%d: %w", si, ci, err)
			}
		}
		segs = append(segs, newSegment(materializeRows(cols, int(rows)), cols, schema))
	}
	if next != footerStart {
		return nil, fmt.Errorf("storage: segment blocks end at %d, the footer starts at %d", next, footerStart)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("storage: corrupt segment footer: %w", err)
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

// encodeColVec appends one column of one segment to a.
func encodeColVec(a *codec.Appender, c *ColVec, n int) {
	a.Byte(byte(c.Kind))
	a.Bool(c.Pure)
	if !c.Pure {
		for _, v := range c.Vals[:n] {
			a.Value(v)
		}
		return
	}
	// Null bitmap, then the typed payload with null slots zeroed.
	bitmap := len(a.B)
	a.B = append(a.B, make([]byte, (n+7)/8)...)
	for i, isNull := range c.Nulls[:n] {
		if isNull {
			a.B[bitmap+i/8] |= 1 << (i % 8)
		}
	}
	switch c.Kind {
	case types.KindInt, types.KindTime, types.KindBool:
		for _, v := range c.I64[:n] {
			a.U64(uint64(v))
		}
	case types.KindFloat:
		for _, v := range c.F64[:n] {
			a.Float64(v)
		}
	case types.KindString:
		for _, v := range c.Str[:n] {
			a.String(v)
		}
	}
}

// decodeColVec rebuilds one column from its block payload.
func decodeColVec(b []byte, n int, want types.Kind, c *ColVec) error {
	d := codec.NewDecoder(b)
	kind := types.Kind(d.Byte())
	pure := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if kind != want {
		return fmt.Errorf("column kind %v, schema says %v", kind, want)
	}
	c.Kind = kind
	c.Pure = pure
	c.Nulls = make([]bool, n)
	if !pure {
		c.Vals = make([]types.Value, n)
		for i := range c.Vals {
			c.Vals[i] = d.Value()
			c.Nulls[i] = c.Vals[i].IsNull()
		}
		return d.Finish()
	}
	bitmap := d.Take((n + 7) / 8)
	if err := d.Err(); err != nil {
		return err
	}
	for i := range c.Nulls {
		c.Nulls[i] = bitmap[i/8]&(1<<(i%8)) != 0
	}
	switch kind {
	case types.KindInt, types.KindTime, types.KindBool:
		c.I64 = make([]int64, n)
		for i := range c.I64 {
			c.I64[i] = int64(d.U64())
		}
	case types.KindFloat:
		c.F64 = make([]float64, n)
		for i := range c.F64 {
			c.F64[i] = d.Float64()
		}
	case types.KindString:
		c.Str = make([]string, n)
		for i := range c.Str {
			c.Str[i] = d.String()
		}
	default:
		return fmt.Errorf("pure column with unexpected kind %v", kind)
	}
	return d.Finish()
}
