package rpc

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic and never return an envelope from malformed input without an error,
// and the server's pooled read must agree with it out of a dirty recycled
// buffer.
func FuzzReadFrame(f *testing.F) {
	// Seed with a valid frame.
	var buf bytes.Buffer
	if err := writeFrame(&buf, &envelope{ID: 1, Body: "hello"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	corrupted := append([]byte(nil), buf.Bytes()...)
	if len(corrupted) > 8 {
		corrupted[8] ^= 0x55
	}
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := readFrame(bytes.NewReader(data))
		if err == nil && env == nil {
			t.Fatal("nil envelope without error")
		}
		decodeRecycled(t, data)
	})
}

// FuzzFrameRoundTrip checks that every string body survives a write/read
// cycle byte-identically.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add("", uint64(0))
	f.Add("hello", uint64(42))
	f.Add(string(make([]byte, 1000)), uint64(1<<60))
	f.Fuzz(func(t *testing.T, body string, id uint64) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, &envelope{ID: id, Body: body}); err != nil {
			t.Skip() // oversized bodies are legitimately rejected
		}
		// Frame length prefix must match the payload.
		if got := binary.BigEndian.Uint32(buf.Bytes()[:4]); int(got) != buf.Len()-4 {
			t.Fatalf("length prefix %d, payload %d", got, buf.Len()-4)
		}
		env, err := readFrame(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if env.ID != id {
			t.Fatalf("ID %d != %d", env.ID, id)
		}
		if got, ok := env.Body.(string); !ok || got != body {
			t.Fatalf("body %q (%T) != %q", env.Body, env.Body, body)
		}
	})
}
