package rpc

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"leime/internal/netem"
)

// idempotent marks request types that are safe to send more than once: a
// retried delivery (after a transport failure that may or may not have
// reached the server) leaves the system in the same state as a single one.
// Control-plane requests (register, queue stats, rate updates) qualify;
// task executions do not — re-running a block would burn compute twice, so
// the runtime degrades those locally instead of retrying.
type idempotent interface {
	Idempotent() bool
}

func isIdempotent(body any) bool {
	i, ok := body.(idempotent)
	return ok && i.Idempotent()
}

// RetryPolicy caps how often and how patiently a ReliableClient re-sends an
// idempotent request after a transport failure: capped exponential backoff
// with multiplicative jitter. The zero value selects the defaults noted on
// each field.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first call included
	// (default 3). 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50ms);
	// subsequent retries double it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 1s).
	MaxDelay time.Duration
	// Jitter is the fraction of the delay randomized away, in (0, 1]
	// (default 0.2): the actual sleep is delay * (1 - Jitter*U[0,1)),
	// de-synchronizing fleets of devices retrying against one edge. Zero
	// means "use the default"; pass any negative value to disable jitter.
	Jitter float64
}

// withDefaults normalizes the zero value to the documented defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	switch {
	case p.Jitter == 0:
		p.Jitter = 0.2
	case p.Jitter < 0:
		p.Jitter = 0
	case p.Jitter > 1:
		p.Jitter = 1
	}
	return p
}

// backoff returns the sleep before retry number retry (0-based), jittered.
func (p RetryPolicy) backoff(retry int, rng *rand.Rand) time.Duration {
	d := p.BaseDelay << uint(retry)
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		d = time.Duration(float64(d) * (1 - p.Jitter*rng.Float64()))
	}
	return d
}

// BreakerState is the circuit breaker's condition.
type BreakerState int32

const (
	// BreakerClosed passes calls through (healthy peer).
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen lets a single probe through after the cooldown; its
	// outcome decides between closing and re-opening.
	BreakerHalfOpen
	// BreakerOpen fails calls fast with ErrCircuitOpen.
	BreakerOpen
)

// String names the state for logs and telemetry notes.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes a per-peer circuit breaker. The zero value selects
// the defaults noted on each field.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive transport failures that
	// trips the breaker open (default 5).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before letting a probe
	// through (default 1s).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	return c
}

// Breaker is a per-peer circuit breaker: consecutive transport failures
// trip it open, calls then fail fast until the cooldown elapses, a single
// half-open probe decides recovery. It is safe for concurrent use.
type Breaker struct {
	cfg      BreakerConfig
	onChange func(BreakerState)

	mu       sync.Mutex
	state    BreakerState
	failures int
	until    time.Time // when open: earliest half-open probe
	probing  bool      // half-open: a probe is in flight
}

// newBreaker builds a breaker; onChange (optional) observes state
// transitions and is invoked without internal locks held.
func newBreaker(cfg BreakerConfig, onChange func(BreakerState)) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), onChange: onChange}
}

// State returns the current state, promoting open to half-open when the
// cooldown has elapsed.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && !time.Now().Before(b.until) {
		return BreakerHalfOpen
	}
	return b.state
}

// allow reports whether a call may proceed. Open: ErrCircuitOpen until the
// cooldown elapses, then the first caller becomes the half-open probe and
// every other caller keeps failing fast until the probe resolves.
func (b *Breaker) allow() error {
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.mu.Unlock()
		return nil
	case BreakerOpen:
		if time.Now().Before(b.until) {
			b.mu.Unlock()
			return ErrCircuitOpen
		}
		b.state = BreakerHalfOpen
		b.probing = true
		b.mu.Unlock()
		b.notify(BreakerHalfOpen)
		return nil
	default: // half-open
		if b.probing {
			b.mu.Unlock()
			return ErrCircuitOpen
		}
		b.probing = true
		b.mu.Unlock()
		return nil
	}
}

// success records a completed call and closes the breaker.
func (b *Breaker) success() {
	b.mu.Lock()
	b.failures = 0
	b.probing = false
	changed := b.state != BreakerClosed
	b.state = BreakerClosed
	b.mu.Unlock()
	if changed {
		b.notify(BreakerClosed)
	}
}

// failure records a transport failure; enough consecutive ones (or a failed
// half-open probe) trip the breaker open for the cooldown.
func (b *Breaker) failure() {
	b.mu.Lock()
	b.failures++
	b.probing = false
	trip := b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.failures >= b.cfg.FailureThreshold)
	if trip {
		b.state = BreakerOpen
		b.until = time.Now().Add(b.cfg.Cooldown)
	}
	b.mu.Unlock()
	if trip {
		b.notify(BreakerOpen)
	}
}

// releaseProbe abandons an inconclusive half-open probe (the call ran out
// of time budget) without deciding the breaker's fate, so the next caller
// can probe again.
func (b *Breaker) releaseProbe() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

func (b *Breaker) notify(s BreakerState) {
	if b.onChange != nil {
		b.onChange(s)
	}
}

// ReliableOptions configure DialReliable.
type ReliableOptions struct {
	// Retry caps re-sends of idempotent requests (zero value = defaults).
	Retry RetryPolicy
	// Breaker tunes the per-peer circuit breaker (zero value = defaults).
	Breaker BreakerConfig
	// OnConnect, when non-nil, runs after every successful dial before any
	// call proceeds on the new connection — the session re-establishment
	// hook (a device re-registers with a restarted edge here). Returning an
	// error discards the connection and counts as a transport failure.
	OnConnect func(ctx context.Context, c *Client) error
	// OnRetry, when non-nil, observes every retry attempt (telemetry).
	OnRetry func()
	// OnBreakerChange, when non-nil, observes breaker transitions
	// (telemetry). It is invoked without internal locks held.
	OnBreakerChange func(BreakerState)
	// Seed drives retry jitter; 0 derives one from the address.
	Seed int64
}

// ReliableClient is a fault-tolerant client for one peer address: it dials
// lazily, re-dials after connection loss, retries idempotent requests with
// capped exponential backoff, and fails fast through a circuit breaker
// while the peer is down so callers can degrade instead of blocking. It is
// safe for concurrent use.
type ReliableClient struct {
	addr    string
	shaper  *netem.Shaper
	retry   RetryPolicy
	breaker *Breaker
	opts    ReliableOptions

	rngMu sync.Mutex
	rng   *rand.Rand

	mu     sync.Mutex
	cur    *Client
	closed bool
}

// DialReliable builds a fault-tolerant client for addr. The connection is
// established lazily on the first call, so the client can be constructed
// before its peer is up.
func DialReliable(addr string, shaper *netem.Shaper, opts ReliableOptions) *ReliableClient {
	seed := opts.Seed
	if seed == 0 {
		for _, b := range addr {
			seed = seed*131 + int64(b)
		}
		seed ^= 0x5eed
	}
	return &ReliableClient{
		addr:    addr,
		shaper:  shaper,
		retry:   opts.Retry.withDefaults(),
		breaker: newBreaker(opts.Breaker, opts.OnBreakerChange),
		opts:    opts,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Breaker exposes the client's circuit breaker (read its State for
// decision overrides).
func (r *ReliableClient) Breaker() *Breaker { return r.breaker }

// conn returns the live connection, dialing (and running OnConnect) if
// needed.
func (r *ReliableClient) conn(ctx context.Context) (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if r.cur != nil {
		return r.cur, nil
	}
	c, err := dialContext(ctx, r.addr, r.shaper)
	if err != nil {
		return nil, err
	}
	if r.opts.OnConnect != nil {
		if err := r.opts.OnConnect(ctx, c); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	r.cur = c
	return c, nil
}

// invalidate discards a connection observed dead so the next call re-dials.
func (r *ReliableClient) invalidate(c *Client) {
	r.mu.Lock()
	if r.cur == c {
		r.cur = nil
	}
	r.mu.Unlock()
	_ = c.Close()
}

// isTransport classifies failures that mean "the peer did not serve this
// call": dial errors, dead connections, shaper-injected faults.
func isTransport(err error) bool {
	return errors.Is(err, ErrPeerUnavailable) || errors.Is(err, ErrClosed) || errors.Is(err, netem.ErrInjected)
}

// Call sends body with empty metadata; see CallMeta.
func (r *ReliableClient) Call(ctx context.Context, body any) (any, error) {
	return r.CallMeta(ctx, Meta{}, body)
}

// CallMeta sends body through the breaker with the configured retry policy.
// Only transport failures of idempotent bodies are retried; remote handler
// errors and deadline expiries return immediately. While the breaker is
// open, calls fail fast with ErrCircuitOpen.
func (r *ReliableClient) CallMeta(ctx context.Context, meta Meta, body any) (any, error) {
	idem := isIdempotent(body)
	var lastErr error
	for attempt := 0; attempt < r.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			if r.opts.OnRetry != nil {
				r.opts.OnRetry()
			}
			r.rngMu.Lock()
			delay := r.retry.backoff(attempt-1, r.rng)
			r.rngMu.Unlock()
			if err := sleepCtx(ctx, delay); err != nil {
				return nil, ctxError(err)
			}
		}
		if err := r.breaker.allow(); err != nil {
			// Open breaker: fail fast, never spin the retry loop against it.
			if lastErr == nil {
				lastErr = err
			}
			return nil, lastErr
		}
		c, err := r.conn(ctx)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return nil, err // this reliable client was closed
			}
			lastErr = err
			r.breaker.failure()
			if idem {
				continue
			}
			return nil, err
		}
		got, err := c.CallMeta(ctx, meta, body)
		if err == nil {
			r.breaker.success()
			return got, nil
		}
		lastErr = err
		switch {
		case isTransport(err):
			r.breaker.failure()
			r.invalidate(c)
			if idem {
				continue
			}
			return nil, err
		case errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, context.Canceled):
			// The peer may be healthy; the caller ran out of budget. Not a
			// breaker failure, and retrying cannot help. Release a possible
			// half-open probe so the next caller can probe again.
			r.breaker.releaseProbe()
			return nil, err
		default:
			// Remote application error: the peer is alive and answered. A
			// request that failed to encode lands here too; it never left
			// this process, and retrying cannot make it encode.
			r.breaker.success()
			return nil, err
		}
	}
	return nil, lastErr
}

// sleepCtx sleeps for d or until the context ends, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close tears down the current connection; subsequent calls fail with
// ErrClosed.
func (r *ReliableClient) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	c := r.cur
	r.cur = nil
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
