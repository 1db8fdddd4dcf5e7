package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

type panicReq struct{ Msg string }

func startHardenedServer(t *testing.T) *Server {
	t.Helper()
	s, err := ServeMeta("127.0.0.1:0", func(_ context.Context, _ Meta, body any) (any, error) {
		switch req := body.(type) {
		case panicReq:
			panic(req.Msg)
		case echoReq:
			return echoResp{Text: req.Text, N: req.N}, nil
		default:
			return nil, nil
		}
	})
	if err != nil {
		t.Fatalf("ServeMeta: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestHandlerPanicBecomesError(t *testing.T) {
	s := startHardenedServer(t)
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), panicReq{Msg: "boom"}); err == nil {
		t.Fatal("panic not surfaced as error")
	}
	// The server (and the same connection) must still work afterwards.
	got, err := c.Call(context.Background(), echoReq{Text: "still alive", N: 1})
	if err != nil {
		t.Fatalf("call after panic: %v", err)
	}
	if got.(echoResp).Text != "still alive" {
		t.Errorf("wrong reply %+v", got)
	}
}

func TestCorruptFrameClosesOnlyThatConnection(t *testing.T) {
	s := startHardenedServer(t)

	// Garbage bytes behind a plausible length prefix.
	garbage := make([]byte, 4+16)
	binary.BigEndian.PutUint32(garbage[:4], 16)
	for i := 4; i < len(garbage); i++ {
		garbage[i] = 0xff
	}
	// A well-formed request under codec tag 0, the retired gob codec.
	tag0, err := MarshalFrame(TestEnvelope{ID: 1, Body: echoReq{Text: "ok"}})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	tag0[5] = 0
	for name, frame := range map[string][]byte{"garbage": garbage, "codec tag 0": tag0} {
		t.Run(name, func(t *testing.T) {
			raw, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatalf("dial raw: %v", err)
			}
			defer raw.Close()
			if _, err := raw.Write(frame); err != nil {
				t.Fatalf("write: %v", err)
			}
			// The server should drop the corrupted connection: a read
			// eventually returns EOF/reset rather than hanging.
			_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
			buf := make([]byte, 1)
			if _, err := raw.Read(buf); err == nil {
				t.Error("server kept a corrupted connection alive with data")
			}

			// A healthy client is unaffected.
			c, err := Dial(s.Addr(), nil)
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			if _, err := c.Call(context.Background(), echoReq{Text: "ok"}); err != nil {
				t.Errorf("healthy client failed after another connection corrupted: %v", err)
			}
		})
	}
}

// TestUnencodableReplyAnswersCaller has the handler return replies that
// cannot be encoded, one over MaxMessageBytes and one with no codec. The
// caller must get the encode error as a RemoteError at once, not wait out
// its deadline, and the connection must keep serving.
func TestUnencodableReplyAnswersCaller(t *testing.T) {
	type unregistered struct{ X int }
	s, err := ServeMeta("127.0.0.1:0", func(_ context.Context, _ Meta, body any) (any, error) {
		switch body.(echoReq).Text {
		case "huge":
			return benchTaskReq{Payload: make([]byte, maxMessageBytes)}, nil
		case "uncodable":
			return unregistered{X: 1}, nil
		}
		return body, nil
	})
	if err != nil {
		t.Fatalf("ServeMeta: %v", err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	for text, want := range map[string]string{
		"huge":      "exceeds limit",
		"uncodable": "no codec registered for rpc.unregistered",
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := c.Call(ctx, echoReq{Text: text})
		cancel()
		var remote *remoteErr
		if !errors.As(err, &remote) || !strings.Contains(remote.Msg, want) {
			t.Errorf("%s reply: call error %v, want a RemoteError containing %q", text, err, want)
		}
	}
	if _, err := c.Call(context.Background(), echoReq{Text: "ok"}); err != nil {
		t.Errorf("connection unusable after unencodable replies: %v", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	s := startHardenedServer(t)
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	defer raw.Close()
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], maxMessageBytes+1)
	if _, err := raw.Write(lenBuf[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Error("server accepted an oversized frame announcement")
	}
}

func TestClientSurvivesServerRestart(t *testing.T) {
	s := startHardenedServer(t)
	addr := s.Addr()
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), echoReq{Text: "one"}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	_ = s.Close()
	// Calls on the dead connection fail fast rather than hanging.
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), echoReq{Text: "two"})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("call to closed server succeeded")
		}
	case <-time.After(3 * time.Second):
		t.Error("call to closed server hung")
	}
	// A fresh server on a fresh port accepts a fresh client.
	s2, err := ServeMeta("127.0.0.1:0", func(_ context.Context, _ Meta, body any) (any, error) { return body, nil })
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	c2, err := Dial(s2.Addr(), nil)
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Call(context.Background(), echoReq{Text: "three"}); err != nil {
		t.Errorf("call after restart: %v", err)
	}
}
