package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"leime/internal/netem"
)

type echoReq struct {
	Text string
	N    int
}

type echoResp struct {
	Text string
	N    int
}

type slowReq struct {
	Delay time.Duration
	Tag   int
}

type slowResp struct {
	Tag int
}

// registerTestCodec gives a test-only message type a binary codec on a
// test-reserved ID (60000 and up, far from the runtime protocol's range).
func registerTestCodec[T any](id uint16, enc func(*Encoder, T), dec func(*Decoder) T) {
	var zero T
	RegisterCodec(id, zero,
		func(e *Encoder, v any) { enc(e, v.(T)) },
		func(d *Decoder) (any, error) { return dec(d), nil })
}

// The tests' message types travel like any other body: through a codec.
func init() {
	registerTestCodec(60001,
		func(e *Encoder, r echoReq) { e.String(r.Text); e.Int(r.N) },
		func(d *Decoder) echoReq { return echoReq{Text: d.String(), N: d.Int()} })
	registerTestCodec(60002,
		func(e *Encoder, r echoResp) { e.String(r.Text); e.Int(r.N) },
		func(d *Decoder) echoResp { return echoResp{Text: d.String(), N: d.Int()} })
	registerTestCodec(60003,
		func(e *Encoder, r benchTaskReq) {
			e.String(r.DeviceID)
			e.Uvarint(r.TaskID)
			e.Bytes(r.Payload)
			e.Int(r.Exit)
		},
		func(d *Decoder) benchTaskReq {
			return benchTaskReq{DeviceID: d.String(), TaskID: d.Uvarint(), Payload: d.Bytes(), Exit: d.Int()}
		})
	registerTestCodec(60004,
		func(e *Encoder, r slowReq) { e.varint(int64(r.Delay)); e.Int(r.Tag) },
		func(d *Decoder) slowReq { return slowReq{Delay: time.Duration(d.varint()), Tag: d.Int()} })
	registerTestCodec(60005,
		func(e *Encoder, r slowResp) { e.Int(r.Tag) },
		func(d *Decoder) slowResp { return slowResp{Tag: d.Int()} })
	registerTestCodec(60006,
		func(e *Encoder, r metaReq) { e.Int(r.Tag) },
		func(d *Decoder) metaReq { return metaReq{Tag: d.Int()} })
	registerTestCodec(60007,
		func(e *Encoder, r metaResp) { e.Int(r.Tag); e.Uvarint(r.TraceID); e.Uvarint(r.SpanID) },
		func(d *Decoder) metaResp { return metaResp{Tag: d.Int(), TraceID: d.Uvarint(), SpanID: d.Uvarint()} })
	registerTestCodec(60008,
		func(e *Encoder, r idemReq) { e.Int(r.N); e.Bytes(r.Pad) },
		func(d *Decoder) idemReq { return idemReq{N: d.Int(), Pad: d.Bytes()} })
	registerTestCodec(60009,
		func(e *Encoder, r onceReq) { e.Int(r.N) },
		func(d *Decoder) onceReq { return onceReq{N: d.Int()} })
	registerTestCodec(60010,
		func(e *Encoder, r panicReq) { e.String(r.Msg) },
		func(d *Decoder) panicReq { return panicReq{Msg: d.String()} })
	registerTestCodec(60011,
		func(e *Encoder, s string) { e.String(s) },
		func(d *Decoder) string { return d.String() })
}

func startEcho(t *testing.T) *Server {
	t.Helper()
	s, err := ServeMeta("127.0.0.1:0", func(_ context.Context, _ Meta, body any) (any, error) {
		switch req := body.(type) {
		case echoReq:
			if req.Text == "boom" {
				return nil, errors.New("requested failure")
			}
			return echoResp{Text: req.Text, N: req.N * 2}, nil
		case slowReq:
			time.Sleep(req.Delay)
			return slowResp{Tag: req.Tag}, nil
		default:
			return nil, fmt.Errorf("unknown request %T", body)
		}
	})
	if err != nil {
		t.Fatalf("ServeMeta: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestCallRoundTrip(t *testing.T) {
	s := startEcho(t)
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	got, err := c.Call(context.Background(), echoReq{Text: "hi", N: 21})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	resp, ok := got.(echoResp)
	if !ok {
		t.Fatalf("reply type %T", got)
	}
	if resp.Text != "hi" || resp.N != 42 {
		t.Errorf("reply = %+v", resp)
	}
}

func TestCallRemoteError(t *testing.T) {
	s := startEcho(t)
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), echoReq{Text: "boom"}); err == nil {
		t.Error("expected remote error")
	}
}

func TestConcurrentCallsCorrelate(t *testing.T) {
	s := startEcho(t)
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Randomize completion order with varying delays.
			delay := time.Duration(i%7) * time.Millisecond
			got, err := c.Call(context.Background(), slowReq{Delay: delay, Tag: i})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if resp := got.(slowResp); resp.Tag != i {
				t.Errorf("call %d got reply for %d", i, resp.Tag)
			}
		}(i)
	}
	wg.Wait()
}

func TestMultipleClients(t *testing.T) {
	s := startEcho(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(s.Addr(), nil)
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer c.Close()
			got, err := c.Call(context.Background(), echoReq{N: i})
			if err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			if got.(echoResp).N != i*2 {
				t.Errorf("client %d: wrong reply %+v", i, got)
			}
		}(i)
	}
	wg.Wait()
}

func TestCallAfterClose(t *testing.T) {
	s := startEcho(t)
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.Call(context.Background(), echoReq{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Call after close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s := startEcho(t)
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), slowReq{Delay: 5 * time.Second})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("call succeeded after server close")
		}
	case <-time.After(2 * time.Second):
		t.Error("call not unblocked by server close")
	}
}

func TestShapedClientSlowsLargeMessages(t *testing.T) {
	s := startEcho(t)
	shaper, err := netem.NewShaper(netem.Link{BandwidthBps: 8e6}, 3) // 1 MB/s
	if err != nil {
		t.Fatalf("NewShaper: %v", err)
	}
	c, err := Dial(s.Addr(), shaper)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	big := echoReq{Text: string(make([]byte, 200_000))} // ~200 KB => >= ~200 ms
	start := time.Now()
	if _, err := c.Call(context.Background(), big); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("shaped call too fast: %v", elapsed)
	}
}

// TestShapedCallsPayLatencyPerFrame is the shaper's side of the write path's
// contract: netem charges its latency once per Write, so a client must hand
// a shaped connection one frame per Write. K concurrent calls over a link
// with latency L and ample bandwidth then take at least K·L; frames
// coalesced into one Write would share a single L and finish early.
func TestShapedCallsPayLatencyPerFrame(t *testing.T) {
	const k, latency = 8, 20 * time.Millisecond
	s := startEcho(t)
	shaper, err := netem.NewShaper(netem.Link{BandwidthBps: 1e9, Latency: latency}, 3)
	if err != nil {
		t.Fatalf("NewShaper: %v", err)
	}
	c, err := Dial(s.Addr(), shaper)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Call(context.Background(), echoReq{Text: "shaped", N: i}); err != nil {
				t.Errorf("Call %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < k*latency {
		t.Errorf("%d calls over a %v link took %v, want at least %v: frames shared a Write", k, latency, elapsed, k*latency)
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil); err == nil {
		t.Error("expected dial error")
	}
}

func TestServeNilHandler(t *testing.T) {
	if _, err := ServeMeta("127.0.0.1:0", nil); err == nil {
		t.Error("nil meta handler accepted")
	}
}

type metaReq struct {
	Tag int
}

type metaResp struct {
	Tag     int
	TraceID uint64
	SpanID  uint64
}

// startMetaEcho serves a handler that reflects the envelope metadata back to
// the caller, proving the trace fields round-trip through the envelope.
func startMetaEcho(t *testing.T, delay time.Duration) *Server {
	t.Helper()
	s, err := ServeMeta("127.0.0.1:0", func(_ context.Context, meta Meta, body any) (any, error) {
		req, ok := body.(metaReq)
		if !ok {
			return nil, fmt.Errorf("unknown request %T", body)
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		return metaResp{Tag: req.Tag, TraceID: meta.TraceID, SpanID: meta.SpanID}, nil
	})
	if err != nil {
		t.Fatalf("ServeMeta: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestMetaRoundTrip(t *testing.T) {
	s := startMetaEcho(t, 0)
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	got, err := c.CallMeta(context.Background(), Meta{TraceID: 0xabc, SpanID: 0xdef}, metaReq{Tag: 1})
	if err != nil {
		t.Fatalf("CallMeta: %v", err)
	}
	resp := got.(metaResp)
	if resp.TraceID != 0xabc || resp.SpanID != 0xdef {
		t.Errorf("metadata did not round-trip: %+v", resp)
	}
	// Plain Call sends the zero (untraced) metadata.
	got, err = c.Call(context.Background(), metaReq{Tag: 2})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	resp = got.(metaResp)
	if resp.TraceID != 0 || resp.SpanID != 0 {
		t.Errorf("untraced call leaked metadata: %+v", resp)
	}
}

// TestGracefulShutdownWithInFlightMeta closes the server while many
// metadata-carrying calls are in flight. Every call must either complete
// with its own correlated metadata echoed back or fail cleanly with a
// connection error — no mixed-up replies, no hangs, no races (the test is
// run under -race in tier-1).
func TestGracefulShutdownWithInFlightMeta(t *testing.T) {
	s := startMetaEcho(t, 20*time.Millisecond)
	const clients = 4
	const callsPerClient = 25
	var wg sync.WaitGroup
	var completed, failed int64
	var mu sync.Mutex
	for ci := 0; ci < clients; ci++ {
		c, err := Dial(s.Addr(), nil)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		for i := 0; i < callsPerClient; i++ {
			wg.Add(1)
			go func(ci, i int) {
				defer wg.Done()
				tag := ci*1000 + i
				meta := Meta{TraceID: uint64(tag) + 1, SpanID: uint64(tag) + 2}
				got, err := c.CallMeta(context.Background(), meta, metaReq{Tag: tag})
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					failed++
					return
				}
				resp := got.(metaResp)
				if resp.Tag != tag || resp.TraceID != meta.TraceID || resp.SpanID != meta.SpanID {
					t.Errorf("call %d got mismatched reply %+v", tag, resp)
				}
				completed++
			}(ci, i)
		}
	}
	// Let a first wave reach the server, then close mid-flight. Server
	// Close waits for in-flight handlers, so accepted requests finish.
	time.Sleep(30 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if completed+failed != clients*callsPerClient {
		t.Errorf("accounting: %d completed + %d failed != %d", completed, failed, clients*callsPerClient)
	}
	if completed == 0 {
		t.Error("no call completed before shutdown; timing too tight to exercise the drain")
	}
}

// TestCloseIdempotentUnderConcurrency hammers Close from several goroutines
// while calls are active; every Close must return without panic or deadlock.
func TestCloseIdempotentUnderConcurrency(t *testing.T) {
	s := startMetaEcho(t, 5*time.Millisecond)
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = c.CallMeta(context.Background(), Meta{TraceID: uint64(i + 1)}, metaReq{Tag: i})
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Close()
		}()
	}
	wg.Wait()
}
