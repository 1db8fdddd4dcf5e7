package rpc

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leime/internal/netem"
)

// TestWriteFailureFailsQueuedCalls kills a shaped connection while calls
// are queued behind a flush that is sleeping out the link's latency: the
// flusher's next Write meets a blackout. Every call must fail as a
// transport failure well before its deadline, and the server must close
// with no handler goroutine left.
func TestWriteFailureFailsQueuedCalls(t *testing.T) {
	leakCheck(t)
	const n = 8
	var active atomic.Int32
	s, err := Serve("127.0.0.1:0", func(ctx context.Context, _ any) (any, error) {
		active.Add(1)
		defer active.Add(-1)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer s.Close()
	shaper, err := netem.NewShaper(netem.Link{Latency: 500 * time.Millisecond}, 1)
	if err != nil {
		t.Fatalf("NewShaper: %v", err)
	}
	c, err := Dial(s.Addr(), shaper)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	const deadline = 10 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := c.Call(ctx, echoReq{Text: "queued", N: i})
			errs <- err
		}(i)
	}
	// All n are queued while the first Write still sleeps in the shaper.
	for {
		c.w.mu.Lock()
		queued := c.w.queued
		c.w.mu.Unlock()
		if queued == n {
			break
		}
		if time.Since(start) > deadline/2 {
			t.Fatalf("only %d of %d calls queued", queued, n)
		}
		time.Sleep(time.Millisecond)
	}
	if err := shaper.SetFault(netem.Fault{Blackout: true}); err != nil {
		t.Fatalf("SetFault: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, ErrPeerUnavailable) {
			t.Errorf("queued call = %v, want ErrPeerUnavailable", err)
		}
	}
	if elapsed := time.Since(start); elapsed > deadline/3 {
		t.Errorf("queued calls took %v to fail, deadline %v", elapsed, deadline)
	}

	closed := make(chan struct{})
	go func() {
		_ = s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung after the connection died")
	}
	if a := active.Load(); a != 0 {
		t.Errorf("%d handlers still running after Server.Close", a)
	}
}

// TestAbandonedCallReturnsAfterItsEncode abandons a call whose request is
// still queued behind a shaped write, then overwrites the payload it sent.
// Encoding happens at the flusher, possibly after the caller's deadline, so
// CallMeta must not return before its request is encoded: the peer has to
// see the bytes as they were at the call.
func TestAbandonedCallReturnsAfterItsEncode(t *testing.T) {
	seen := make(chan error, 2)
	s, err := Serve("127.0.0.1:0", func(_ context.Context, body any) (any, error) {
		req := body.(benchTaskReq)
		seen <- checkPattern(req.Payload, req.TaskID)
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer s.Close()
	shaper, err := netem.NewShaper(netem.Link{Latency: 100 * time.Millisecond}, 1)
	if err != nil {
		t.Fatalf("NewShaper: %v", err)
	}
	c, err := Dial(s.Addr(), shaper)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	first := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), benchTaskReq{TaskID: 1})
		first <- err
	}()
	for {
		c.w.mu.Lock()
		inFlight := c.w.queued == 1 && len(c.w.queue) == 0
		c.w.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	payload := make([]byte, 3000)
	fillPattern(payload, 2)
	// Cancel rather than time out: a propagated deadline would have the
	// server shed the request before the handler could check it.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	if _, err := c.Call(ctx, benchTaskReq{TaskID: 2, Payload: payload}); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned call = %v, want context.Canceled", err)
	}
	for i := range payload {
		payload[i] = 0xff
	}
	if err := <-first; err != nil {
		t.Fatalf("first call: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-seen; err != nil {
			t.Errorf("peer saw a request changed after its call returned: %v", err)
		}
	}
}

// TestBatchedEncodeFailureFailsOnlyItsCall queues one request over
// MaxMessageBytes among 16 small ones on one connection, all behind a
// shaped flush so they reach the writer as one batch. Only the oversized
// call fails, with a local (non-transport) error; the others are answered,
// and the reliable client neither retries nor counts a breaker failure.
func TestBatchedEncodeFailureFailsOnlyItsCall(t *testing.T) {
	leakCheck(t)
	s := startEcho(t)
	shaper, err := netem.NewShaper(netem.Link{Latency: 20 * time.Millisecond}, 1)
	if err != nil {
		t.Fatalf("NewShaper: %v", err)
	}
	var retries atomic.Int32
	r := DialReliable(s.Addr(), shaper, ReliableOptions{
		Retry:   fastOpts().Retry,
		Breaker: BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute},
		OnRetry: func() { retries.Add(1) },
		Seed:    1,
	})
	defer r.Close()
	if _, err := r.Call(context.Background(), echoReq{Text: "connect"}); err != nil {
		t.Fatalf("first call: %v", err)
	}

	const small = 16
	var wg sync.WaitGroup
	var hugeErr error
	wg.Add(small + 1)
	go func() {
		defer wg.Done()
		_, hugeErr = r.Call(context.Background(), echoReq{Text: strings.Repeat("x", MaxMessageBytes)})
	}()
	for i := 0; i < small; i++ {
		go func(i int) {
			defer wg.Done()
			got, err := r.Call(context.Background(), echoReq{Text: "small", N: i})
			if err != nil {
				t.Errorf("small call %d beside an unencodable one: %v", i, err)
				return
			}
			if resp := got.(echoResp); resp.N != 2*i {
				t.Errorf("small call %d answered %+v", i, resp)
			}
		}(i)
	}
	wg.Wait()
	if hugeErr == nil || !strings.Contains(hugeErr.Error(), "exceeds limit") {
		t.Fatalf("oversized call = %v, want an exceeds-limit encode error", hugeErr)
	}
	if errors.Is(hugeErr, ErrPeerUnavailable) {
		t.Errorf("encode failure %v reported as a transport failure", hugeErr)
	}
	if retries.Load() != 0 {
		t.Errorf("%d retries in a batch with one unencodable request", retries.Load())
	}
	if got := r.Breaker().State(); got != BreakerClosed {
		t.Errorf("breaker %v after a batched encode failure, want closed", got)
	}
}
