package rpc

import (
	"bytes"
	"io"
	"unsafe"
)

// Test-only exports: external test packages (which may import the runtime
// protocol without creating an import cycle) drive the frame codec through
// these wrappers.

// TestEnvelope mirrors the unexported envelope for test construction.
type TestEnvelope struct {
	ID      uint64
	IsReply bool
	Err     string
	Code    string
	Meta    Meta
	Body    any
}

// writeFrame encodes env and writes the frame to w with a single Write, as
// a client or server does.
func writeFrame(w io.Writer, env *envelope) error {
	e, err := encodeFrame(env)
	if err != nil {
		return err
	}
	defer putEncoder(e)
	_, err = w.Write(e.buf)
	return err
}

// MarshalFrame encodes env exactly as a client or server would write it:
// one length-prefixed versioned frame.
func MarshalFrame(env TestEnvelope) ([]byte, error) {
	var buf bytes.Buffer
	err := writeFrame(&buf, &envelope{
		ID: env.ID, IsReply: env.IsReply,
		Err: env.Err, Code: env.Code,
		Meta: env.Meta, Body: env.Body,
	})
	return buf.Bytes(), err
}

// UnmarshalFrame decodes one frame from data.
func UnmarshalFrame(data []byte) (TestEnvelope, error) {
	env, err := readFrame(bytes.NewReader(data))
	if err != nil {
		return TestEnvelope{}, err
	}
	return testEnvelope(env), nil
}

func testEnvelope(env *envelope) TestEnvelope {
	return TestEnvelope{
		ID: env.ID, IsReply: env.IsReply,
		Err: env.Err, Code: env.Code,
		Meta: env.Meta, Body: env.Body,
	}
}

// dirtyFrameClass leaves a 0xFF-filled buffer in the pool class that serves
// an n-byte frame, as a longer frame released just before would, and
// returns its address so a test can tell whether it was the one reused
// (sync.Pool may drop it, and does so at random under -race).
func dirtyFrameClass(n int) *byte {
	b := getFrameBuf(n)
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xff
	}
	putFrameBuf(b)
	return unsafe.SliceData(b)
}

// readRecycledFrame decodes one frame from data the way a server does, out
// of a frame-pool buffer that held a longer, 0xFF-filled frame before. The
// caller owns frame (nil on error) and releases it with putFrameBuf; dirty
// is the address of the buffer that was left for the read to find.
func readRecycledFrame(data []byte) (env *envelope, frame []byte, dirty *byte, err error) {
	if n, lenErr := readFrameLen(bytes.NewReader(data)); lenErr == nil {
		dirty = dirtyFrameClass(n)
	}
	env, frame, err = readPooledFrame(bytes.NewReader(data))
	return env, frame, dirty, err
}

// UnmarshalRecycledFrame is UnmarshalFrame through readRecycledFrame. check
// runs while the buffer is still owned, so it may use the envelope's
// aliasing fields; the buffer is released when it returns.
func UnmarshalRecycledFrame(data []byte, check func(TestEnvelope, error)) {
	env, frame, _, err := readRecycledFrame(data)
	if err != nil {
		check(TestEnvelope{}, err)
		return
	}
	check(testEnvelope(env), nil)
	putFrameBuf(frame)
}

// ReadFrameForTest decodes one frame from a reader, returning only the
// decode error (fuzzers probing corrupt input).
func ReadFrameForTest(r io.Reader) error {
	_, err := readFrame(r)
	return err
}
