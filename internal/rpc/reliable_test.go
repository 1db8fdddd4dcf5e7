package rpc

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type idemReq struct {
	N   int
	Pad []byte
}

func (idemReq) Idempotent() bool { return true }

type onceReq struct{ N int }

func fastOpts() ReliableOptions {
	return ReliableOptions{
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		Breaker: BreakerConfig{FailureThreshold: 3, Cooldown: 50 * time.Millisecond},
		Seed:    1,
	}
}

func TestRetryPolicyDefaultsAndBackoff(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p.MaxAttempts != 3 || p.BaseDelay != 50*time.Millisecond || p.MaxDelay != time.Second || p.Jitter != 0.2 {
		t.Errorf("defaults = %+v", p)
	}
	rng := rand.New(rand.NewSource(1))
	noJitter := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 35 * time.Millisecond, Jitter: -1}.withDefaults()
	if noJitter.Jitter != 0 {
		t.Errorf("negative Jitter should normalize to 0, got %v", noJitter.Jitter)
	}
	wants := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 35 * time.Millisecond, 35 * time.Millisecond}
	for i, want := range wants {
		if got := noJitter.backoff(i, rng); got != want {
			t.Errorf("backoff(%d) = %v, want %v", i, got, want)
		}
	}
	jittered := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Jitter: 0.5}
	for i := 0; i < 20; i++ {
		d := jittered.backoff(0, rng)
		if d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Errorf("jittered backoff %v outside [50ms, 100ms]", d)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	var transitions []BreakerState
	var mu sync.Mutex
	b := newBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: 40 * time.Millisecond}, func(s BreakerState) {
		mu.Lock()
		transitions = append(transitions, s)
		mu.Unlock()
	})
	if b.State() != BreakerClosed {
		t.Fatalf("fresh breaker state = %v", b.State())
	}
	if err := b.allow(); err != nil {
		t.Fatalf("closed breaker refused a call: %v", err)
	}
	b.failure()
	if b.State() != BreakerClosed {
		t.Error("breaker tripped below the threshold")
	}
	b.failure()
	if b.State() != BreakerOpen {
		t.Fatal("breaker did not trip at the threshold")
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker allowed a call (err=%v)", err)
	}
	// After the cooldown, exactly one caller becomes the half-open probe.
	time.Sleep(50 * time.Millisecond)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", b.State())
	}
	if err := b.allow(); err != nil {
		t.Fatalf("half-open breaker refused the probe: %v", err)
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Error("second concurrent probe allowed")
	}
	// A failed probe re-opens; a successful one closes.
	b.failure()
	if b.State() != BreakerOpen {
		t.Error("failed probe did not re-open the breaker")
	}
	time.Sleep(50 * time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.success()
	if b.State() != BreakerClosed {
		t.Error("successful probe did not close the breaker")
	}
	mu.Lock()
	defer mu.Unlock()
	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestBreakerReleaseProbe(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: 10 * time.Millisecond}, nil)
	b.failure()
	time.Sleep(20 * time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	// The probe's call ran out of deadline — inconclusive. Releasing it
	// must let the next caller probe instead of wedging half-open forever.
	b.releaseProbe()
	if err := b.allow(); err != nil {
		t.Errorf("probe slot wedged after release: %v", err)
	}
}

func TestBreakerStateString(t *testing.T) {
	names := map[BreakerState]string{BreakerClosed: "closed", BreakerHalfOpen: "half-open", BreakerOpen: "open", BreakerState(9): "unknown"}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(s), got, want)
		}
	}
}

func TestReliableRetriesIdempotentAfterReconnect(t *testing.T) {
	leakCheck(t)
	// A server that dies after its first reply and is replaced on the same
	// address: the reliable client must redial and the idempotent request
	// must succeed transparently.
	s := startEcho(t)
	addr := s.Addr()
	var retries, connects atomic.Int32
	r := DialReliable(addr, nil, ReliableOptions{
		Retry:   RetryPolicy{MaxAttempts: 4, BaseDelay: 20 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		Breaker: BreakerConfig{FailureThreshold: 10, Cooldown: 50 * time.Millisecond},
		OnRetry: func() { retries.Add(1) },
		OnConnect: func(ctx context.Context, c *Client) error {
			connects.Add(1)
			return nil
		},
		Seed: 1,
	})
	defer r.Close()
	if _, err := r.Call(context.Background(), echoReq{Text: "warm", N: 1}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if connects.Load() != 1 {
		t.Fatalf("connects = %d after first call", connects.Load())
	}
	_ = s.Close()
	// Restart on the same port; a racing retry may land before the new
	// listener is up, which the retry budget absorbs.
	s2, err := ServeMeta(addr, func(_ context.Context, _ Meta, body any) (any, error) { return body, nil })
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer s2.Close()
	got, err := r.Call(context.Background(), idemReq{N: 7})
	if err != nil {
		t.Fatalf("idempotent call across restart: %v", err)
	}
	if got.(idemReq).N != 7 {
		t.Errorf("wrong reply %+v", got)
	}
	if connects.Load() < 2 {
		t.Errorf("connects = %d, want >= 2 (reconnect)", connects.Load())
	}
	if retries.Load() == 0 {
		t.Error("no retry observed across the restart")
	}
}

func TestReliableDoesNotRetryNonIdempotent(t *testing.T) {
	leakCheck(t)
	s := startEcho(t)
	addr := s.Addr()
	r := DialReliable(addr, nil, fastOpts())
	defer r.Close()
	if _, err := r.Call(context.Background(), echoReq{Text: "warm"}); err != nil {
		t.Fatalf("warm call: %v", err)
	}
	_ = s.Close()
	var retries atomic.Int32
	r2 := DialReliable(addr, nil, ReliableOptions{
		Retry:   fastOpts().Retry,
		Breaker: fastOpts().Breaker,
		OnRetry: func() { retries.Add(1) },
		Seed:    1,
	})
	defer r2.Close()
	_, err := r2.Call(context.Background(), onceReq{N: 1})
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("non-idempotent call to dead peer = %v, want ErrPeerUnavailable", err)
	}
	if retries.Load() != 0 {
		t.Errorf("%d retries of a non-idempotent request", retries.Load())
	}
}

func TestReliableBreakerOpensAndRecovers(t *testing.T) {
	leakCheck(t)
	s := startEcho(t)
	addr := s.Addr()
	var states []BreakerState
	var mu sync.Mutex
	r := DialReliable(addr, nil, ReliableOptions{
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
		Breaker: BreakerConfig{FailureThreshold: 2, Cooldown: 60 * time.Millisecond},
		OnBreakerChange: func(st BreakerState) {
			mu.Lock()
			states = append(states, st)
			mu.Unlock()
		},
		Seed: 1,
	})
	defer r.Close()
	if _, err := r.Call(context.Background(), echoReq{Text: "ok"}); err != nil {
		t.Fatalf("healthy call: %v", err)
	}
	_ = s.Close()
	// Enough failing calls trip the breaker within one retry budget.
	_, err := r.Call(context.Background(), idemReq{N: 1})
	if err == nil {
		t.Fatal("call to dead peer succeeded")
	}
	if r.Breaker().State() != BreakerOpen {
		t.Fatalf("breaker state = %v after failures, want open", r.Breaker().State())
	}
	// While open, calls fail fast with the typed sentinel.
	start := time.Now()
	_, err = r.Call(context.Background(), idemReq{N: 2})
	if !errors.Is(err, ErrCircuitOpen) && !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("open-breaker call = %v, want ErrCircuitOpen or last failure", err)
	}
	if time.Since(start) > 40*time.Millisecond {
		t.Errorf("open-breaker call was not fast: %v", time.Since(start))
	}
	// Restart the peer; after the cooldown the next call is the half-open
	// probe, succeeds, and the breaker closes.
	s2, err := ServeMeta(addr, func(_ context.Context, _ Meta, body any) (any, error) { return body, nil })
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	time.Sleep(80 * time.Millisecond)
	if _, err := r.Call(context.Background(), idemReq{N: 3}); err != nil {
		t.Fatalf("probe call after restart: %v", err)
	}
	if got := r.Breaker().State(); got != BreakerClosed {
		t.Errorf("breaker state after recovery = %v, want closed", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(states) < 3 || states[0] != BreakerOpen || states[len(states)-1] != BreakerClosed {
		t.Errorf("breaker transitions = %v, want open ... closed", states)
	}
}

func TestReliableRemoteErrorsDoNotTripBreaker(t *testing.T) {
	leakCheck(t)
	s := startEcho(t)
	r := DialReliable(s.Addr(), nil, ReliableOptions{
		Breaker: BreakerConfig{FailureThreshold: 2, Cooldown: time.Second},
		Seed:    1,
	})
	defer r.Close()
	for i := 0; i < 5; i++ {
		if _, err := r.Call(context.Background(), echoReq{Text: "boom"}); err == nil {
			t.Fatal("expected remote error")
		}
	}
	if got := r.Breaker().State(); got != BreakerClosed {
		t.Errorf("application errors tripped the breaker: %v", got)
	}
}

func TestReliableClosed(t *testing.T) {
	r := DialReliable("127.0.0.1:1", nil, fastOpts())
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := r.Call(context.Background(), idemReq{}); !errors.Is(err, ErrClosed) {
		t.Errorf("call on closed reliable client = %v, want ErrClosed", err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestReliableOnConnectFailureDiscardsConnection(t *testing.T) {
	leakCheck(t)
	s, err := ServeMeta("127.0.0.1:0", func(_ context.Context, _ Meta, body any) (any, error) { return body, nil })
	if err != nil {
		t.Fatalf("ServeMeta: %v", err)
	}
	defer s.Close()
	fail := atomic.Bool{}
	fail.Store(true)
	var attempts atomic.Int32
	r := DialReliable(s.Addr(), nil, ReliableOptions{
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
		Breaker: BreakerConfig{FailureThreshold: 10, Cooldown: 50 * time.Millisecond},
		OnConnect: func(ctx context.Context, c *Client) error {
			attempts.Add(1)
			if fail.Load() {
				return errors.New("handshake rejected")
			}
			return nil
		},
		Seed: 1,
	})
	defer r.Close()
	if _, err := r.Call(context.Background(), idemReq{N: 1}); err == nil {
		t.Fatal("call succeeded despite failing handshake")
	}
	fail.Store(false)
	if _, err := r.Call(context.Background(), idemReq{N: 2}); err != nil {
		t.Fatalf("call after handshake recovery: %v", err)
	}
	if attempts.Load() < 3 {
		t.Errorf("OnConnect attempts = %d, want >= 3", attempts.Load())
	}
}

// TestReliableEncodeFailureIsNotTransport sends an idempotent request too
// large to encode. Nothing reached the peer, so it is not a transport
// failure: one attempt, no breaker failure, and the connection stays in
// use for the next call.
func TestReliableEncodeFailureIsNotTransport(t *testing.T) {
	leakCheck(t)
	s := startEcho(t)
	var retries, connects atomic.Int32
	r := DialReliable(s.Addr(), nil, ReliableOptions{
		Retry:   fastOpts().Retry,
		Breaker: BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute},
		OnRetry: func() { retries.Add(1) },
		OnConnect: func(context.Context, *Client) error {
			connects.Add(1)
			return nil
		},
		Seed: 1,
	})
	defer r.Close()
	_, err := r.Call(context.Background(), idemReq{N: 1, Pad: make([]byte, maxMessageBytes)})
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("over-limit request = %v, want an exceeds-limit encode error", err)
	}
	if errors.Is(err, ErrPeerUnavailable) {
		t.Errorf("encode failure %v reported as a transport failure", err)
	}
	if retries.Load() != 0 {
		t.Errorf("%d retries of a request that can never encode", retries.Load())
	}
	if got := r.Breaker().State(); got != BreakerClosed {
		t.Errorf("breaker %v after an encode failure, want closed", got)
	}
	r.mu.Lock()
	c := r.cur
	r.mu.Unlock()
	if c == nil {
		t.Fatal("encode failure discarded the connection")
	}
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d pending slots left after the failed encode", pending)
	}
	got, err := r.Call(context.Background(), echoReq{Text: "after", N: 2})
	if err != nil {
		t.Fatalf("call after the encode failure: %v", err)
	}
	if got.(echoResp).N != 4 || connects.Load() != 1 {
		t.Errorf("reply %+v after %d connects, want N=4 on the first connection", got, connects.Load())
	}
}
