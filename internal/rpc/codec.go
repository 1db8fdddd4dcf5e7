// Binary wire codec: the one way onto the wire, and the zero-allocation
// data plane of the rpc layer.
//
// Every frame on the wire is length-prefixed and versioned:
//
//	[4 bytes] big-endian payload length n (bytes after this prefix)
//	[1 byte ] wire version (currently 1)
//	[1 byte ] codec tag: always 1, the binary envelope
//	[n-2 B  ] binary envelope payload
//
// The codec hand-rolls the envelope header (correlation ID, flags, error
// text/code, trace metadata) and dispatches the body through a registry of
// per-type encode/decode functions keyed by a stable uint16 type ID
// (RegisterCodec). The protocol is closed: a body type without a
// registered codec cannot be sent, and a frame with any other codec tag is
// rejected like any other corruption.
//
// Allocation discipline: every frame buffer has one owner and one release
// point. Encoding borrows a buffer from the size-classed frame pool
// (framepool.go) and grows through the pool's classes; the connection's
// frame writer (writer.go) writes the frame and returns the buffer, so the
// steady-state encode path allocates nothing at any frame size. A server
// reads each request into a pooled buffer, and the frame writer releases
// it once the reply is encoded (the encoder copies what the reply aliases,
// so the release does not wait for the write); a client reads each reply
// into an exact-size buffer the garbage collector owns, because the reply
// is handed to the caller and has no release point. Decoded byte-slice
// fields alias the frame buffer (a request body's []byte fields are valid
// until its reply is encoded, a reply's for as long as the caller holds
// them); decoded strings are copies, because strings are what handlers
// keep — map keys, installed routes, span labels.
package rpc

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
)

// Wire format constants. bumping wireVersion breaks older peers loudly (a
// reader rejects unknown versions and drops the connection) rather than
// silently misparsing — version negotiation by construction, since both
// ends of every link in this repo ship together. codecBinary is the only
// valid codec tag.
const (
	wireVersion = 1
	codecBinary = 1
)

// frameHeaderLen is the length prefix plus version and codec tags.
const frameHeaderLen = 6

// EncodeFunc appends one registered body's binary form to the encoder.
// It must be the exact inverse of its DecodeFunc.
type EncodeFunc func(e *Encoder, v any)

// DecodeFunc rebuilds one registered body from the decoder. It returns the
// decoded value boxed as any; field-level failures surface through the
// decoder's sticky error, so implementations only return an error for
// structural violations the decoder cannot see.
type DecodeFunc func(d *Decoder) (any, error)

// codecEntry binds one concrete body type to its wire ID and functions.
type codecEntry struct {
	id  uint16
	typ reflect.Type
	enc EncodeFunc
	dec DecodeFunc
}

// codecTables is the immutable registry snapshot swapped atomically on
// registration, so hot-path lookups take no lock.
type codecTables struct {
	byType map[reflect.Type]*codecEntry
	byID   map[uint16]*codecEntry
}

var (
	codecMu     sync.Mutex
	codecsValue atomic.Value // holds *codecTables
)

func init() {
	codecsValue.Store(&codecTables{
		byType: map[reflect.Type]*codecEntry{},
		byID:   map[uint16]*codecEntry{},
	})
}

func codecTablesSnapshot() *codecTables {
	return codecsValue.Load().(*codecTables)
}

// RegisterCodec makes a message type transportable through the binary
// codec under the given stable wire ID. IDs identify the type on the wire,
// so they must never be reused for a different type; re-registering the
// same (id, type) pair is idempotent (setup functions run once per tier
// construction). ID 0 is reserved for the nil body. A type must be
// registered before it is sent: an unregistered body fails to encode.
func RegisterCodec(id uint16, prototype any, enc EncodeFunc, dec DecodeFunc) {
	if id == 0 {
		panic("rpc: codec ID 0 is reserved for the nil body")
	}
	if prototype == nil || enc == nil || dec == nil {
		panic("rpc: RegisterCodec needs a prototype and both functions")
	}
	typ := reflect.TypeOf(prototype)
	codecMu.Lock()
	defer codecMu.Unlock()
	cur := codecTablesSnapshot()
	if prev, ok := cur.byID[id]; ok {
		if prev.typ != typ {
			panic(fmt.Sprintf("rpc: codec ID %d already bound to %v, cannot rebind to %v", id, prev.typ, typ))
		}
		return // idempotent re-registration
	}
	if prev, ok := cur.byType[typ]; ok {
		panic(fmt.Sprintf("rpc: type %v already has codec ID %d, cannot also bind ID %d", typ, prev.id, id))
	}
	next := &codecTables{
		byType: make(map[reflect.Type]*codecEntry, len(cur.byType)+1),
		byID:   make(map[uint16]*codecEntry, len(cur.byID)+1),
	}
	for k, v := range cur.byType {
		next.byType[k] = v
	}
	for k, v := range cur.byID {
		next.byID[k] = v
	}
	entry := &codecEntry{id: id, typ: typ, enc: enc, dec: dec}
	next.byType[typ] = entry
	next.byID[id] = entry
	codecsValue.Store(next)
}

// lookupCodec returns the entry for body's concrete type, nil when the
// type has no registered codec.
func lookupCodec(body any) *codecEntry {
	return codecTablesSnapshot().byType[reflect.TypeOf(body)]
}

// Encoder is an append-only byte builder for the binary codec. Encode
// methods never fail: the buffer grows through the frame pool's size
// classes as needed and the frame writer enforces MaxMessageBytes once,
// after encoding.
type Encoder struct {
	buf []byte
}

// reserve makes room for n more bytes, so the appends that follow it never
// reallocate outside the frame pool.
func (e *Encoder) reserve(n int) {
	if cap(e.buf)-len(e.buf) < n {
		e.grow(n)
	}
}

// grow moves the encoded bytes into a buffer of the pool class that fits n
// more and returns the outgrown one to its class.
func (e *Encoder) grow(n int) {
	next := getFrameBuf(len(e.buf) + n)[:len(e.buf)]
	copy(next, e.buf)
	putFrameBuf(e.buf)
	e.buf = next
}

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) {
	e.reserve(1)
	e.buf = append(e.buf, b)
}

// Bool appends a bool as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Uvarint appends an unsigned varint (LEB128, like encoding/binary).
func (e *Encoder) Uvarint(v uint64) {
	e.reserve(binary.MaxVarintLen64)
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a signed varint (zigzag).
func (e *Encoder) Varint(v int64) {
	e.Uvarint(uint64(v)<<1 ^ uint64(v>>63))
}

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Float64 appends the IEEE-754 bits as 8 fixed little-endian bytes —
// floats are profile constants and shares, where varint buys nothing.
func (e *Encoder) Float64(f float64) {
	e.reserve(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.reserve(len(s))
	e.buf = append(e.buf, s...)
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(p []byte) {
	e.Uvarint(uint64(len(p)))
	e.reserve(len(p))
	e.buf = append(e.buf, p...)
}

// Decoder consumes the binary form produced by an Encoder. Errors are
// sticky: after the first malformed field every subsequent read returns a
// zero value, and Err reports the failure once at the end — corrupt frames
// always surface as errors, never panics.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder wraps data for decoding. The decoder and every Bytes value it
// returns alias data; callers must not mutate it afterwards.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first decode failure, nil if none so far.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unconsumed bytes.
func (d *Decoder) Len() int { return len(d.data) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Byte consumes one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil || d.off >= len(d.data) {
		d.fail("rpc: decode: truncated byte at offset %d", d.off)
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

// Bool consumes one byte as a bool; values other than 0/1 are corruption.
func (d *Decoder) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("rpc: decode: invalid bool at offset %d", d.off-1)
		return false
	}
}

// Uvarint consumes an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var v uint64
	var shift uint
	for {
		if d.off >= len(d.data) {
			d.fail("rpc: decode: truncated varint at offset %d", d.off)
			return 0
		}
		b := d.data[d.off]
		d.off++
		if shift == 63 && b > 1 {
			d.fail("rpc: decode: varint overflows uint64 at offset %d", d.off-1)
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
		if shift > 63 {
			d.fail("rpc: decode: varint too long at offset %d", d.off-1)
			return 0
		}
	}
}

// Varint consumes a signed (zigzag) varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int consumes an int-sized signed varint.
func (d *Decoder) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.fail("rpc: decode: varint %d overflows int", v)
		return 0
	}
	return int(v)
}

// Float64 consumes 8 fixed little-endian bytes as IEEE-754 bits.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.fail("rpc: decode: truncated float64 at offset %d", d.off)
		return 0
	}
	b := d.data[d.off : d.off+8]
	d.off += 8
	bits := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return math.Float64frombits(bits)
}

// Bytes consumes a length-prefixed byte slice. The result aliases the
// frame buffer (zero copy) and is valid only as long as the frame's owner
// holds the buffer: for a request body, until its reply is encoded. Nil for
// the empty slice.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail("rpc: decode: byte slice of %d exceeds remaining %d", n, len(d.data)-d.off)
		return nil
	}
	if n == 0 {
		return nil
	}
	b := d.data[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return b
}

// String consumes a length-prefixed string. Unlike Bytes it copies: decoded
// strings are what handlers keep past the reply (tenant keys, installed
// pipeline IDs and next-hop addresses, span labels), and a string aliasing
// a recycled frame would change under its holder.
func (d *Decoder) String() string { return string(d.Bytes()) }

// encPool recycles the Encoder structs (they escape through the codec
// function pointers); their buffers belong to the frame pool.
var encPool = sync.Pool{New: func() any { return new(Encoder) }}

func getEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.buf = getFrameBuf(minFrameClass)[:0]
	return e
}

func putEncoder(e *Encoder) {
	putFrameBuf(e.buf)
	e.buf = nil
	encPool.Put(e)
}

// CodecStats is a snapshot of the wire codec counters: how many frames and
// payload bytes moved in each direction. The runtime daemons export these
// through telemetry gauges.
type CodecStats struct {
	// BinaryEncoded and BinaryDecoded count frames written and read.
	BinaryEncoded, BinaryDecoded uint64
	// BinaryBytes counts encoded payload bytes.
	BinaryBytes uint64
	// GobEncoded and GobBytes are always zero. Binary is the only codec
	// left; the fields stay because the benchmark module still adds them
	// into its frame and byte totals.
	GobEncoded, GobBytes uint64
}

var wireStats struct {
	binEnc, binDec, binByte atomic.Uint64
}

// WireStats snapshots the process-wide codec counters.
func WireStats() CodecStats {
	return CodecStats{
		BinaryEncoded: wireStats.binEnc.Load(),
		BinaryDecoded: wireStats.binDec.Load(),
		BinaryBytes:   wireStats.binByte.Load(),
	}
}
