package rpc

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestEncoderDecoderPrimitives round-trips every primitive across its edge
// values.
func TestEncoderDecoderPrimitives(t *testing.T) {
	var e Encoder
	uvals := []uint64{0, 1, 127, 128, 16383, 16384, math.MaxUint64}
	ivals := []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64}
	fvals := []float64{0, -0.0, 1.5, math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	svals := []string{"", "x", "device-дев-7", strings.Repeat("p", 300)}
	bvals := [][]byte{nil, {0}, {1, 2, 3, 255}}
	for _, v := range uvals {
		e.Uvarint(v)
	}
	for _, v := range ivals {
		e.varint(v)
	}
	for _, v := range fvals {
		e.Float64(v)
	}
	for _, v := range svals {
		e.String(v)
	}
	for _, v := range bvals {
		e.Bytes(v)
	}
	e.Bool(true)
	e.Bool(false)
	e.rawByte(0xAB)
	e.Int(-12345)

	d := newDecoder(e.buf)
	for _, want := range uvals {
		if got := d.Uvarint(); got != want {
			t.Errorf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range ivals {
		if got := d.varint(); got != want {
			t.Errorf("Varint = %d, want %d", got, want)
		}
	}
	for _, want := range fvals {
		if got := d.Float64(); got != want {
			t.Errorf("Float64 = %v, want %v", got, want)
		}
	}
	for _, want := range svals {
		if got := d.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	for _, want := range bvals {
		if got := d.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("Bytes = %v, want %v", got, want)
		}
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := d.rawByte(); got != 0xAB {
		t.Errorf("Byte = %#x, want 0xAB", got)
	}
	if got := d.Int(); got != -12345 {
		t.Errorf("Int = %d, want -12345", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if d.Len() != 0 {
		t.Errorf("%d trailing bytes", d.Len())
	}
}

// TestDecoderNaN pins that NaN bits survive the fixed-width float encoding
// (equality on bits, not value).
func TestDecoderNaN(t *testing.T) {
	var e Encoder
	e.Float64(math.NaN())
	d := newDecoder(e.buf)
	if got := d.Float64(); !math.IsNaN(got) {
		t.Errorf("NaN decoded as %v", got)
	}
}

// TestDecoderErrorsAreSticky drives every malformed-input path and checks
// errors stick without panics.
func TestDecoderErrorsAreSticky(t *testing.T) {
	cases := []struct {
		name string
		feed func(d *Decoder)
		data []byte
	}{
		{"truncated byte", func(d *Decoder) { d.rawByte() }, nil},
		{"truncated varint", func(d *Decoder) { d.Uvarint() }, []byte{0x80}},
		{"overlong varint", func(d *Decoder) { d.Uvarint() }, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}},
		{"truncated float", func(d *Decoder) { d.Float64() }, []byte{1, 2, 3}},
		{"invalid bool", func(d *Decoder) { d.Bool() }, []byte{7}},
		{"bytes beyond frame", func(d *Decoder) { d.Bytes() }, []byte{0x20, 1, 2}},
		{"string beyond frame", func(d *Decoder) { _ = d.String() }, []byte{0x05, 'a'}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newDecoder(c.data)
			c.feed(d)
			if d.Err() == nil {
				t.Fatal("no error on malformed input")
			}
			first := d.Err()
			// Subsequent reads return zero values, error unchanged.
			if got := d.Uvarint(); got != 0 {
				t.Errorf("post-error Uvarint = %d, want 0", got)
			}
			//lint:ignore wireerrors stickiness is pointer identity: the decoder must surface the first error object unchanged
			if d.Err() != first {
				t.Errorf("error not sticky: %v then %v", first, d.Err())
			}
		})
	}
}

// TestRegisterCodecConflicts pins the registry's safety panics and its
// idempotence.
func TestRegisterCodecConflicts(t *testing.T) {
	type typeA struct{ X int }
	type typeB struct{ Y int }
	enc := func(e *Encoder, v any) {}
	dec := func(d *Decoder) (any, error) { return typeA{}, nil }
	const baseID = 60100
	RegisterCodec(baseID, typeA{}, enc, dec)
	RegisterCodec(baseID, typeA{}, enc, dec) // idempotent re-registration

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("ID 0", func() { RegisterCodec(0, typeA{}, enc, dec) })
	mustPanic("nil prototype", func() { RegisterCodec(baseID+1, nil, enc, dec) })
	mustPanic("ID rebind", func() { RegisterCodec(baseID, typeB{}, enc, dec) })
	mustPanic("type rebind", func() { RegisterCodec(baseID+2, typeA{}, enc, dec) })
}

// TestEncodePoolRecycles checks a borrowed encoder starts empty in the
// smallest class, grows into the class that fits a large body, and that the
// grown buffer goes back to that class instead of being dropped.
func TestEncodePoolRecycles(t *testing.T) {
	body := make([]byte, 192<<10)
	recycled := false
	// sync.Pool may drop a Put (it does so at random under -race), so give
	// the buffer a few chances to come back.
	for i := 0; i < 64 && !recycled; i++ {
		e := getEncoder()
		if len(e.buf) != 0 || cap(e.buf) != minFrameClass {
			t.Fatalf("fresh encoder: len %d cap %d, want 0 and %d", len(e.buf), cap(e.buf), minFrameClass)
		}
		e.Bytes(body)
		grown := cap(e.buf)
		if want := frameClassSize(frameClass(len(e.buf))); grown != want {
			t.Fatalf("grown encoder cap %d, want its class size %d", grown, want)
		}
		first := unsafe.SliceData(e.buf)
		putEncoder(e)
		b := getFrameBuf(grown)
		recycled = unsafe.SliceData(b) == first
		putFrameBuf(b)
	}
	if !recycled {
		t.Errorf("a %d-byte encode buffer never came back from its class", len(body))
	}
}

// TestWireStatsCounts checks the codec counters advance with each frame
// written and read, and that the legacy gob fields stay at zero.
func TestWireStatsCounts(t *testing.T) {
	before := WireStats()
	var buf bytes.Buffer
	if err := writeFrame(&buf, &envelope{ID: 1, Body: "counted"}); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	payload := uint64(buf.Len() - frameHeaderLen)
	if _, err := readFrame(&buf); err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	after := WireStats()
	if after.BinaryEncoded <= before.BinaryEncoded || after.BinaryDecoded <= before.BinaryDecoded {
		t.Errorf("frame counters did not advance: %+v -> %+v", before, after)
	}
	if after.BinaryBytes-before.BinaryBytes < payload {
		t.Errorf("byte counter advanced %d, want at least %d", after.BinaryBytes-before.BinaryBytes, payload)
	}
	if after.GobEncoded != 0 || after.GobBytes != 0 {
		t.Errorf("gob counters moved: %+v", after)
	}
}
