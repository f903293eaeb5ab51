package engine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"trac/internal/storage"
	"trac/internal/types"
)

// Primitive value, string and domain encoders of the TRACDB02 checkpoint
// dump (opendir.go). Writers target a bufio.Writer, whose sticky error the
// caller collects at Flush.

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

func readVarint(r *bufio.Reader) (int64, error) { return binary.ReadVarint(r) }

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<30 {
		return "", fmt.Errorf("engine: corrupt dump (string length %d)", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// writeValue writes v in storage's value codec, the one segment files use
// too; storage.ReadValue reads it back.
func writeValue(w *bufio.Writer, v types.Value) error {
	b, err := storage.AppendValue(w.AvailableBuffer(), v)
	w.Write(b)
	return err
}

func writeDomain(w *bufio.Writer, d types.Domain) {
	w.WriteByte(byte(d.Kind))
	w.WriteByte(byte(d.ValueKind))
	switch d.Kind {
	case types.DomainFinite:
		writeUvarint(w, uint64(len(d.Values)))
		for _, v := range d.Values {
			writeValue(w, v)
		}
	case types.DomainIntRange:
		writeVarint(w, d.MinInt)
		writeVarint(w, d.MaxInt)
	}
}

func readDomain(r *bufio.Reader) (types.Domain, error) {
	kindB, err := r.ReadByte()
	if err != nil {
		return types.Domain{}, err
	}
	vkB, err := r.ReadByte()
	if err != nil {
		return types.Domain{}, err
	}
	d := types.Domain{Kind: types.DomainKind(kindB), ValueKind: types.Kind(vkB)}
	switch d.Kind {
	case types.DomainFinite:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return types.Domain{}, err
		}
		vals := make([]types.Value, n)
		for i := range vals {
			vals[i], err = storage.ReadValue(r)
			if err != nil {
				return types.Domain{}, err
			}
		}
		return types.FiniteDomain(vals...)
	case types.DomainIntRange:
		min, err := binary.ReadVarint(r)
		if err != nil {
			return types.Domain{}, err
		}
		max, err := binary.ReadVarint(r)
		if err != nil {
			return types.Domain{}, err
		}
		return types.IntRangeDomain(min, max)
	default:
		return d, nil
	}
}
