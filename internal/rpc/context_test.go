package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// leakCheck snapshots the goroutine count and verifies (with retries, since
// exits are asynchronous) that it returns to baseline by test end.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
	})
}

// silentServer accepts connections and reads frames but never replies —
// the pathological peer that forces callers to rely on their deadline.
func silentServer(t *testing.T) (addr string, accepted *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	accepted = &atomic.Int32{}
	done := make(chan struct{})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				close(done)
				return
			}
			accepted.Add(1)
			go func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				for {
					select {
					case <-done:
						return
					default:
					}
					_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
					if _, err := conn.Read(buf); err != nil {
						if ne, ok := err.(net.Error); ok && ne.Timeout() {
							continue
						}
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln.Addr().String(), accepted
}

func TestCallDeadlineAgainstSilentServer(t *testing.T) {
	leakCheck(t)
	addr, _ := silentServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Call(ctx, echoReq{Text: "anyone there"})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("silent server call = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("ErrDeadlineExceeded must also match context.DeadlineExceeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline fired late: %v", elapsed)
	}
	// The pending slot must have been reclaimed.
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d pending entries leaked after abandoned call", pending)
	}
}

func TestCallCancellation(t *testing.T) {
	leakCheck(t)
	addr, _ := silentServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, echoReq{})
		errCh <- err
	}()
	// Cancel only once the call is pending, so the cancellation reaches
	// the wait for the reply rather than the check on entry.
	for pending := 0; pending == 0; {
		select {
		case err := <-errCh:
			t.Fatalf("call returned before it was cancelled: %v", err)
		default:
		}
		c.mu.Lock()
		pending = len(c.pending)
		c.mu.Unlock()
		runtime.Gosched()
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled call = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not unblock the call")
	}
}

// TestMidFrameConnectionDrop severs the TCP connection while a reply frame
// is partially written: the client must surface a typed transport error on
// the in-flight call and on subsequent calls, without hanging.
func TestMidFrameConnectionDrop(t *testing.T) {
	leakCheck(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Read the request frame, then write half a reply and drop.
		lenBuf := make([]byte, 4)
		if _, err := readFull(conn, lenBuf); err != nil {
			conn.Close()
			return
		}
		n := binary.BigEndian.Uint32(lenBuf)
		body := make([]byte, n)
		if _, err := readFull(conn, body); err != nil {
			conn.Close()
			return
		}
		// Announce an 80-byte reply but send only 10 bytes of it.
		reply := make([]byte, 14)
		binary.BigEndian.PutUint32(reply[:4], 80)
		_, _ = conn.Write(reply)
		conn.Close()
	}()
	c, err := Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_, err = c.Call(ctx, echoReq{Text: "half"})
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("mid-frame drop = %v, want ErrPeerUnavailable", err)
	}
	// The connection is dead: later calls fail fast with the same typed
	// cause rather than blocking.
	start := time.Now()
	_, err = c.Call(context.Background(), echoReq{Text: "again"})
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Errorf("call on dead connection = %v, want ErrPeerUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("dead-connection call blocked %v", elapsed)
	}
}

func readFull(conn net.Conn, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := conn.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// TestReplyAfterClose lets the server answer a call whose client has
// already been closed: the late reply must be dropped cleanly (no panic,
// no deadlock) and the call must have returned ErrClosed-typed failure.
func TestReplyAfterClose(t *testing.T) {
	leakCheck(t)
	s := startEcho(t)
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), slowReq{Delay: 300 * time.Millisecond, Tag: 9})
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // request reaches the server
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("call succeeded although its client closed underneath it")
		} else if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrPeerUnavailable) {
			t.Errorf("reply-after-close call = %v, want ErrClosed or ErrPeerUnavailable", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("call hung after client close")
	}
	// The server finishes its handler and writes into the closed socket;
	// give that a moment and ensure nothing explodes server-side by making
	// a fresh call on a fresh client.
	time.Sleep(400 * time.Millisecond)
	c2, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Call(context.Background(), echoReq{Text: "fresh"}); err != nil {
		t.Errorf("server unhealthy after reply-after-close: %v", err)
	}
}

// TestDeadlinePropagatesToServer proves the deadline rides the envelope:
// a request sent with an already-distant deadline is served, while one
// whose deadline passes before the server reads it is shed with the typed
// sentinel and counted.
func TestDeadlinePropagatesToServer(t *testing.T) {
	leakCheck(t)
	var sheds atomic.Int32
	s, err := ServeMeta("127.0.0.1:0", func(ctx context.Context, meta Meta, body any) (any, error) {
		if _, ok := ctx.Deadline(); !ok {
			return nil, errors.New("handler context missing the propagated deadline")
		}
		return body, nil
	}, WithShedHook(func() { sheds.Add(1) }))
	if err != nil {
		t.Fatalf("ServeMeta: %v", err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.Call(ctx, echoReq{Text: "in time"}); err != nil {
		t.Fatalf("timely call: %v", err)
	}

	// A meta deadline already in the past must be shed server-side. Bypass
	// the client-side ctx check by setting only meta.Deadline.
	past := Meta{Deadline: time.Now().Add(-time.Second).UnixNano()}
	_, err = c.CallMeta(context.Background(), past, echoReq{Text: "too late"})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired call = %v, want ErrDeadlineExceeded", err)
	}
	var remote *remoteErr
	if !errors.As(err, &remote) {
		t.Error("shed error should arrive as a RemoteError")
	}
	if !strings.Contains(err.Error(), "shed") {
		t.Errorf("shed error text = %q", err)
	}
	if s.DeadlineSheds() != 1 || sheds.Load() != 1 {
		t.Errorf("sheds = %d (hook %d), want 1", s.DeadlineSheds(), sheds.Load())
	}
}

// TestRegisteredErrorCrossesWire checks that a handler error matching a
// registered sentinel is rebuilt typed on the caller side.
func TestRegisteredErrorCrossesWire(t *testing.T) {
	leakCheck(t)
	sentinel := errors.New("rpc_test: flaky storage")
	RegisterError("rpc_test/flaky", sentinel)
	s, err := ServeMeta("127.0.0.1:0", func(_ context.Context, _ Meta, body any) (any, error) {
		return nil, &wrapErr{cause: sentinel, msg: "load shard 7"}
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
	_, err = c.Call(context.Background(), echoReq{})
	if !errors.Is(err, sentinel) {
		t.Errorf("remote error %v lost its sentinel across the wire", err)
	}
	// Unregistered errors still travel as plain RemoteErrors.
	var remote *remoteErr
	if !errors.As(err, &remote) {
		t.Error("expected a RemoteError wrapper")
	}
}

type wrapErr struct {
	cause error
	msg   string
}

func (e *wrapErr) Error() string { return e.msg + ": " + e.cause.Error() }
func (e *wrapErr) Unwrap() error { return e.cause }

func TestRegisterErrorPanicsOnDuplicate(t *testing.T) {
	first := errors.New("first")
	RegisterError("rpc_test/dup", first)
	RegisterError("rpc_test/dup", first) // same sentinel: fine
	defer func() {
		if recover() == nil {
			t.Error("re-registering a code with a different sentinel did not panic")
		}
	}()
	RegisterError("rpc_test/dup", errors.New("second"))
}
