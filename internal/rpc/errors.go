package rpc

import (
	"context"
	"errors"
	"sync"
)

// Typed sentinel errors for the transport. Callers classify failures with
// errors.Is instead of matching error strings: ErrPeerUnavailable and
// ErrClosed describe the local connection, ErrDeadlineExceeded the request's
// time budget, ErrCircuitOpen the reliability layer's fail-fast state.
var (
	// ErrClosed is returned by calls on a closed client or server.
	ErrClosed = errors.New("rpc: connection closed")
	// ErrPeerUnavailable marks transport-level failures: the peer cannot be
	// dialed, the connection died mid-call, or a write failed. Work rejected
	// with it never reached (or never completed at) the remote handler, so
	// idempotent requests may be retried.
	ErrPeerUnavailable = errors.New("rpc: peer unavailable")
	// ErrCircuitOpen is returned by a ReliableClient whose circuit breaker
	// is open: the peer failed repeatedly and calls fail fast until the
	// cooldown elapses. Callers should degrade (e.g. run work locally).
	ErrCircuitOpen = errors.New("rpc: circuit breaker open")
	// ErrDeadlineExceeded marks a call that ran out of time budget — on the
	// caller (context deadline fired awaiting the reply) or on the server
	// (the propagated deadline had already passed, so the request was shed).
	// It also matches context.DeadlineExceeded via errors.Is.
	ErrDeadlineExceeded error = deadlineError{}
)

// deadlineError lets errors.Is(err, context.DeadlineExceeded) succeed for
// deadline failures surfaced by this package, while remaining a distinct
// sentinel.
type deadlineError struct{}

func (deadlineError) Error() string { return "rpc: deadline exceeded" }

func (deadlineError) Is(target error) bool { return target == context.DeadlineExceeded }

// Wire error codes. A handler error that matches a registered sentinel (via
// errors.Is) travels as its code alongside the message text, and the client
// rebuilds an error that wraps the same sentinel — errors.Is works across
// the connection without string matching.
var (
	codesMu   sync.RWMutex
	sentinels = map[string]error{}
)

// RegisterError associates a wire code with a sentinel error. Packages that
// define application-level sentinels (e.g. the runtime's backpressure error)
// register them once at setup so they survive the trip through the envelope.
// Codes must be unique; re-registering a code with a different sentinel
// panics, as rebinding a codec ID does in RegisterCodec.
func RegisterError(code string, sentinel error) {
	if code == "" || sentinel == nil {
		panic("rpc: RegisterError needs a code and a sentinel")
	}
	codesMu.Lock()
	defer codesMu.Unlock()
	//lint:ignore wireerrors identity on purpose: re-registering the same sentinel object is idempotent, an equivalent-but-distinct error is a bug
	if prev, ok := sentinels[code]; ok && prev != sentinel {
		panic("rpc: duplicate error code " + code)
	}
	sentinels[code] = sentinel
}

func init() {
	RegisterError("rpc/deadline", ErrDeadlineExceeded)
	// The connection-state sentinels are minted on the client side, but a
	// server that is itself a client (an edge calling its cloud) returns
	// them from handlers, so they need wire codes like any other sentinel.
	RegisterError("rpc/closed", ErrClosed)
	RegisterError("rpc/peer-unavailable", ErrPeerUnavailable)
	RegisterError("rpc/circuit-open", ErrCircuitOpen)
}

// codeFor returns the wire code of the registered sentinel err matches, or
// "" for uncoded errors. An error matching several sentinels always maps
// to the lexicographically smallest code: map iteration order must not
// decide what goes on the wire.
func codeFor(err error) string {
	codesMu.RLock()
	defer codesMu.RUnlock()
	best := ""
	for code, sentinel := range sentinels {
		if errors.Is(err, sentinel) && (best == "" || code < best) {
			best = code
		}
	}
	return best
}

// sentinelFor resolves a wire code back to its sentinel, nil if unknown.
func sentinelFor(code string) error {
	codesMu.RLock()
	defer codesMu.RUnlock()
	return sentinels[code]
}

// remoteErr is an error returned by the remote handler, reconstructed on
// the caller side. It unwraps to the registered sentinel matching the wire
// code, so errors.Is classifies remote failures exactly like local ones.
type remoteErr struct {
	// Msg is the remote handler's error text.
	Msg string
	// sentinel is the decoded typed cause; nil for uncoded errors.
	sentinel error
}

// Error returns the remote message prefixed with the transport's tag.
func (e *remoteErr) Error() string { return "rpc: remote: " + e.Msg }

// Unwrap exposes the typed cause for errors.Is/errors.As.
func (e *remoteErr) Unwrap() error { return e.sentinel }

// remoteError builds the caller-side error for a reply envelope carrying an
// error, resolving its wire code to a sentinel when one is registered.
func remoteError(msg, code string) error {
	return &remoteErr{Msg: msg, sentinel: sentinelFor(code)}
}
