package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"trac/internal/types"
)

func TestRoundTrip(t *testing.T) {
	values := []types.Value{
		types.Null, types.NewBool(true), types.NewBool(false), types.NewInt(math.MinInt64),
		types.NewInt(math.MaxInt64), types.NewFloat(-0.125), types.NewFloat(math.Inf(1)),
		types.NewString(""), types.NewString("it's"), types.NewTimeNanos(-1), types.NewTimeNanos(1142432405000000000),
	}
	var a Appender
	a.Byte(7)
	a.Bool(true)
	a.Uvarint(math.MaxUint64)
	a.Varint(math.MinInt64)
	a.U64(0x0102030405060708)
	a.Float64(2.5)
	a.String("TRAC")
	a.Uvarint(uint64(len(values)))
	for _, v := range values {
		a.Value(v)
	}

	d := NewDecoder(a.B)
	if d.Byte() != 7 || !d.Bool() || d.Uvarint() != math.MaxUint64 || d.Varint() != math.MinInt64 ||
		d.U64() != 0x0102030405060708 || d.Float64() != 2.5 || d.String() != "TRAC" {
		t.Fatalf("primitives did not round-trip: %v", d.Err())
	}
	got := make([]types.Value, d.Count(1))
	for i := range got {
		got[i] = d.Value()
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, values) {
		t.Fatalf("values %v, want %v", got, values)
	}
}

// TestValueEncoding pins the value bytes the checkpoint dump and segment
// files store.
func TestValueEncoding(t *testing.T) {
	for _, c := range []struct {
		v    types.Value
		want []byte
	}{
		{types.Null, []byte{0}},
		{types.NewBool(true), []byte{1, 1}},
		{types.NewInt(-2), []byte{2, 3}},
		{types.NewFloat(1), []byte{3, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}},
		{types.NewString("ab"), []byte{4, 2, 'a', 'b'}},
		{types.NewTimeNanos(64), []byte{5, 0x80, 1}},
	} {
		var a Appender
		a.Value(c.v)
		if !bytes.Equal(a.B, c.want) {
			t.Errorf("%v encodes as %x, want %x", c.v, a.B, c.want)
		}
	}
}

// TestDecoderRejects: every malformed input fails, the first failure sticks,
// and a claimed count or length the remaining bytes cannot hold fails before
// the caller allocates for it.
func TestDecoderRejects(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for _, c := range []struct {
		name string
		in   []byte
		read func(d *Decoder)
	}{
		{"count of 2^40", append(huge, 0, 0, 0), func(d *Decoder) { d.Count(1) }},
		{"length of 2^40", append(huge, 0, 0, 0), func(d *Decoder) { _ = d.String() }},
		{"3 elements of 2 bytes in 5", []byte{3, 0, 0, 0, 0, 0}, func(d *Decoder) { d.Count(2) }},
		{"truncated uvarint", []byte{0x80}, func(d *Decoder) { d.Uvarint() }},
		{"truncated varint", []byte{0x80}, func(d *Decoder) { d.Varint() }},
		{"bool byte 2", []byte{2, 0}, func(d *Decoder) { d.Bool() }},
		{"value kind 9", []byte{9, 0}, func(d *Decoder) { d.Value() }},
		{"truncated u64", []byte{1, 2, 3}, func(d *Decoder) { d.U64() }},
		{"trailing byte", []byte{1, 2}, func(d *Decoder) { d.Byte(); d.Finish() }},
	} {
		d := NewDecoder(c.in)
		c.read(&d)
		err := d.Err()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if d.Byte() != 0 || d.Uvarint() != 0 || d.Err() != err {
			t.Errorf("%s: a read after the failure did not return zero and keep the first error", c.name)
		}
	}
}

func TestSealOpen(t *testing.T) {
	file := Seal("MAGIC", []byte("body"))
	body, err := Open("MAGIC", file)
	if err != nil || string(body) != "body" {
		t.Fatalf("Open(Seal) = %q, %v", body, err)
	}
	flipped := bytes.Clone(file)
	flipped[6] ^= 1
	if _, err := Open("MAGIC", flipped); err == nil {
		t.Errorf("flipped body: %v", err)
	}
	if _, err := Open("OTHER", file); err == nil {
		t.Error("wrong magic accepted")
	}
	for n := 0; n < len("MAGIC")+4; n++ {
		if _, err := Open("MAGIC", file[:n]); err == nil {
			t.Errorf("%d-byte prefix accepted", n)
		}
	}
}
