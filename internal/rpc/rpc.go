// Package rpc is a minimal typed message layer over TCP for the testbed
// runtime: length-prefixed versioned envelopes in one hand-rolled binary
// codec (see codec.go), concurrent request/response with correlation IDs, a
// handler-based server with graceful shutdown, and optional netem shaping
// on the client side (emulating the wireless uplink or the edge–cloud
// Internet path).
//
// The call APIs are context-aware: a caller's deadline travels in the
// envelope metadata, servers shed requests whose deadline already passed
// before invoking the handler and hand the deadline to the handler as a
// value of its context (ctx.Deadline), with no timer armed per request;
// Done closes only at server shutdown, so a handler that blocks on the
// network arms its own timer. Handler errors that match registered
// sentinels (RegisterError) stay typed across the wire. DialReliable layers
// retries and a circuit breaker on top for unreliable peers.
package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"leime/internal/netem"
)

// MaxMessageBytes bounds a single message; larger frames indicate protocol
// corruption.
const MaxMessageBytes = 16 << 20

// DialTimeout bounds one TCP connection attempt.
const DialTimeout = 5 * time.Second

// readBufBytes sizes the buffered reader under each connection's read loop:
// a coalesced run of small frames comes in with one read.
const readBufBytes = 16 << 10

// Meta is the request metadata carried alongside the body in every
// envelope: the caller's telemetry context and time budget. TraceID groups
// all spans of one task lifecycle across tiers; SpanID is the caller-side
// span the remote work should nest under. Deadline, when non-zero, is the
// task's absolute wall-clock deadline in Unix nanoseconds: servers derive
// the handler context from it and shed work that can no longer finish in
// time. The zero Meta means "untraced, no deadline" and costs nothing on
// the wire: the binary envelope leaves the section out behind a flag bit.
type Meta struct {
	TraceID  uint64
	SpanID   uint64
	Deadline int64
}

// Valid reports whether the metadata carries a live trace.
func (m Meta) Valid() bool { return m.TraceID != 0 }

// envelope is the wire frame. Body carries a value whose type has a
// registered codec (RegisterCodec), or nil; Code carries the typed cause of
// Err (see RegisterError).
type envelope struct {
	ID      uint64
	IsReply bool
	Err     string
	Code    string
	Meta    Meta
	Body    any
}

// Binary envelope flag bits (the byte after the correlation ID).
const (
	flagIsReply = 1 << iota
	flagHasErr
	flagHasMeta
	flagHasBody
)

// encodeEnvelope appends the binary form of env: correlation ID, flags,
// then only the sections the flags declare. entry is the body's codec
// (nil means no body travels).
func encodeEnvelope(e *Encoder, env *envelope, entry *codecEntry) {
	e.Uvarint(env.ID)
	var flags byte
	if env.IsReply {
		flags |= flagIsReply
	}
	hasErr := env.Err != "" || env.Code != ""
	if hasErr {
		flags |= flagHasErr
	}
	hasMeta := env.Meta != (Meta{})
	if hasMeta {
		flags |= flagHasMeta
	}
	if entry != nil {
		flags |= flagHasBody
	}
	e.Byte(flags)
	if hasErr {
		e.String(env.Err)
		e.String(env.Code)
	}
	if hasMeta {
		e.Uvarint(env.Meta.TraceID)
		e.Uvarint(env.Meta.SpanID)
		e.Varint(env.Meta.Deadline)
	}
	if entry != nil {
		e.Uvarint(uint64(entry.id))
		entry.enc(e, env.Body)
	}
}

// binFrame owns one decoded binary envelope and its decoder as a single
// allocation, keeping the steady-state decode path at this struct, the
// body's interface box and one copy per string field.
type binFrame struct {
	env envelope
	dec Decoder
}

// decodeBinaryEnvelope rebuilds an envelope from a binary payload. Every
// corruption mode — truncation, unknown flags, unknown codec ID, bad
// field, trailing garbage — returns an error; nothing panics.
func decodeBinaryEnvelope(payload []byte) (*envelope, error) {
	f := &binFrame{dec: Decoder{data: payload}}
	d := &f.dec
	env := &f.env
	env.ID = d.Uvarint()
	flags := d.Byte()
	if flags&^(flagIsReply|flagHasErr|flagHasMeta|flagHasBody) != 0 {
		return nil, fmt.Errorf("rpc: decode: unknown envelope flags %#x", flags)
	}
	env.IsReply = flags&flagIsReply != 0
	if flags&flagHasErr != 0 {
		env.Err = d.String()
		env.Code = d.String()
	}
	if flags&flagHasMeta != 0 {
		env.Meta.TraceID = d.Uvarint()
		env.Meta.SpanID = d.Uvarint()
		env.Meta.Deadline = d.Varint()
	}
	if flags&flagHasBody != 0 {
		id := d.Uvarint()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if id == 0 || id > 0xffff {
			return nil, fmt.Errorf("rpc: decode: invalid codec ID %d", id)
		}
		entry := codecTablesSnapshot().byID[uint16(id)]
		if entry == nil {
			return nil, fmt.Errorf("rpc: decode: no codec registered for ID %d", id)
		}
		body, err := entry.dec(d)
		if err != nil {
			return nil, err
		}
		env.Body = body
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("rpc: decode: %d trailing bytes after envelope", d.Len())
	}
	return env, nil
}

// encodeFrame encodes env as one length-prefixed versioned frame into an
// encoder borrowed from the frame pool, so the steady-state encode path
// allocates nothing. The caller writes e.buf (the frame writer, see
// writer.go) and then returns the encoder with putEncoder. A body type
// without a registered codec, or a frame over MaxMessageBytes, is an error
// and borrows nothing.
func encodeFrame(env *envelope) (*Encoder, error) {
	var entry *codecEntry
	if env.Body != nil {
		if entry = lookupCodec(env.Body); entry == nil {
			return nil, fmt.Errorf("rpc: encode: no codec registered for %T", env.Body)
		}
	}
	e := getEncoder()
	// Header placeholder: 4-byte length prefix, version, codec tag.
	e.buf = append(e.buf, 0, 0, 0, 0, wireVersion, codecBinary)
	encodeEnvelope(e, env, entry)
	payload := len(e.buf) - 4
	if payload > MaxMessageBytes {
		putEncoder(e)
		return nil, fmt.Errorf("rpc: message of %d bytes exceeds limit", payload)
	}
	binary.BigEndian.PutUint32(e.buf[:4], uint32(payload))
	wireStats.binEnc.Add(1)
	wireStats.binByte.Add(uint64(payload - 2))
	return e, nil
}

// readFrameLen reads and validates a frame's length prefix.
func readFrameLen(r io.Reader) (int, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxMessageBytes {
		return 0, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	if n < 2 {
		return 0, fmt.Errorf("rpc: frame of %d bytes lacks version header", n)
	}
	return int(n), nil
}

// decodeFrame rebuilds the envelope held in buf (a whole frame after its
// length prefix), checking the version and codec tag first. The envelope
// aliases buf through its body's []byte fields.
func decodeFrame(buf []byte) (*envelope, error) {
	if buf[0] != wireVersion {
		return nil, fmt.Errorf("rpc: unsupported wire version %d (want %d)", buf[0], wireVersion)
	}
	if buf[1] != codecBinary {
		return nil, fmt.Errorf("rpc: unknown codec tag %d", buf[1])
	}
	env, err := decodeBinaryEnvelope(buf[2:])
	if err != nil {
		return nil, err
	}
	wireStats.binDec.Add(1)
	return env, nil
}

// readFrame reads one length-prefixed envelope into a buffer of its own,
// allocated to size and left to the garbage collector: the client's side
// of the ownership rule, where the decoded reply goes to the caller and
// nothing marks the moment the caller is done with it.
func readFrame(r io.Reader) (*envelope, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return decodeFrame(buf)
}

// readPooledFrame is readFrame into a frame-pool buffer: the server's side
// of the ownership rule. The caller owns the returned buffer and must
// putFrameBuf it once nothing decoded from the envelope is in use, which
// for a request is after its reply is encoded (an echoing handler's reply
// aliases the request). A failed read or decode releases the buffer here.
func readPooledFrame(r io.Reader) (*envelope, []byte, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, nil, err
	}
	buf := getFrameBuf(n)
	if _, err := io.ReadFull(r, buf); err != nil {
		putFrameBuf(buf)
		return nil, nil, err
	}
	env, err := decodeFrame(buf)
	if err != nil {
		putFrameBuf(buf)
		return nil, nil, err
	}
	return env, buf, nil
}

// Handler processes one request body and returns a reply body or an error.
// The context's Deadline is the caller's propagated envelope deadline (if
// any), carried as a value: no timer backs it, and Done closes only when the
// server shuts down. A handler that blocks on the network arms its own
// timer, context.WithDeadline(ctx, d); one that only computes reads the
// deadline and decides for itself. The body's []byte fields alias the
// request's frame buffer, which the server recycles once the reply is
// encoded: a handler may read them, forward them synchronously and return
// them in its reply, but must copy what it keeps. Strings are copies and
// may be kept.
type Handler func(ctx context.Context, body any) (any, error)

// MetaHandler additionally receives the request's envelope metadata, so
// servers can continue the caller's trace.
type MetaHandler func(ctx context.Context, meta Meta, body any) (any, error)

// ServeOption customizes a server.
type ServeOption func(*Server)

// WithShedHook installs a callback invoked (from the request goroutine)
// every time the server sheds a request whose propagated deadline already
// passed. Tiers use it to surface shed counts through their telemetry.
func WithShedHook(hook func()) ServeOption {
	return func(s *Server) { s.shedHook = hook }
}

// Server accepts connections and dispatches requests to a handler. Each
// request runs in its own goroutine; replies queue on the connection's
// frame writer, which coalesces the ones that are ready together into one
// write.
type Server struct {
	handler  MetaHandler
	ln       net.Listener
	shedHook func()
	sheds    uint64 // atomic: requests shed because their deadline passed

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts a server on addr ("127.0.0.1:0" for an ephemeral port) and
// returns it; the returned server is already accepting. Handlers that need
// the envelope metadata use ServeMeta instead.
func Serve(addr string, handler Handler, opts ...ServeOption) (*Server, error) {
	if handler == nil {
		return nil, errors.New("rpc: nil handler")
	}
	return ServeMeta(addr, func(ctx context.Context, _ Meta, body any) (any, error) {
		return handler(ctx, body)
	}, opts...)
}

// ServeMeta is Serve for handlers that consume the request metadata (the
// caller's trace context).
func ServeMeta(addr string, handler MetaHandler, opts ...ServeOption) (*Server, error) {
	if handler == nil {
		return nil, errors.New("rpc: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen: %w", err)
	}
	s := &Server{handler: handler, ln: ln, conns: make(map[net.Conn]struct{})}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	for _, opt := range opts {
		opt(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// DeadlineSheds returns the number of requests the server refused to handle
// because their propagated deadline had already passed on arrival.
func (s *Server) DeadlineSheds() uint64 { return atomic.LoadUint64(&s.sheds) }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	// A reply that does not encode still answers its caller, with the
	// encode error, rather than leaving it to wait out its deadline.
	w := newFrameWriter(conn, func(env *envelope, err error) *envelope {
		return &envelope{ID: env.ID, IsReply: true, Err: err.Error()}
	})
	defer w.drains.Wait()
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	r := bufio.NewReaderSize(conn, readBufBytes)
	for {
		env, frame, err := readPooledFrame(r)
		if err != nil {
			return // connection closed or corrupted
		}
		reqWG.Add(1)
		go func() {
			defer reqWG.Done()
			reply := envelope{ID: env.ID, IsReply: true}
			body, err := s.dispatch(env.Meta, env.Body)
			if err != nil {
				reply.Err = err.Error()
				reply.Code = codeFor(err)
			} else {
				reply.Body = body
			}
			// The writer releases the request frame once the reply is
			// encoded: an echoing handler's reply aliases it.
			w.send(&reply, frame)
		}()
	}
}

// dispatch derives the request context from the envelope metadata, sheds
// already-expired work, and runs the handler.
func (s *Server) dispatch(meta Meta, body any) (any, error) {
	ctx := s.baseCtx
	if meta.Deadline > 0 {
		deadline := time.Unix(0, meta.Deadline)
		if !time.Now().Before(deadline) {
			atomic.AddUint64(&s.sheds, 1)
			if s.shedHook != nil {
				s.shedHook()
			}
			return nil, fmt.Errorf("rpc: request shed: %w", ErrDeadlineExceeded)
		}
		ctx = &deadlineCtx{Context: ctx, deadline: deadline}
	}
	return s.safeHandle(ctx, meta, body)
}

// deadlineCtx is a handler's context when the envelope carries a deadline:
// the server's base context, reporting the deadline as a value. It arms no
// timer and registers nothing with its parent, so Done and Err are the
// base context's and fire only at server shutdown; a handler that blocks
// on the network bounds the wait with context.WithDeadline itself.
type deadlineCtx struct {
	context.Context
	deadline time.Time
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// safeHandle invokes the handler, converting a panic into an error so one
// bad request cannot take the whole server (and every other tenant's
// connection) down.
func (s *Server) safeHandle(ctx context.Context, meta Meta, body any) (reply any, err error) {
	defer func() {
		if r := recover(); r != nil {
			reply = nil
			err = fmt.Errorf("rpc: handler panic: %v", r)
		}
	}()
	return s.handler(ctx, meta, body)
}

// Close stops accepting, closes all connections and waits for in-flight
// requests to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.cancelBase()
	s.wg.Wait()
	return err
}

// Client is a connection to a Server supporting concurrent correlated
// calls. An optional netem shaper paces outgoing messages.
type Client struct {
	conn net.Conn
	w    *frameWriter

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan callResult
	closed  bool
	readErr error

	wg sync.WaitGroup
}

// Dial connects to addr. If shaper is non-nil, outgoing messages are paced
// through it.
func Dial(addr string, shaper *netem.Shaper) (*Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), DialTimeout)
	defer cancel()
	return DialContext(ctx, addr, shaper)
}

// DialContext is Dial bounded by a context: the attempt stops at the
// context's deadline or cancellation, or after DialTimeout, whichever comes
// first. Dial failures wrap ErrPeerUnavailable.
func DialContext(ctx context.Context, addr string, shaper *netem.Shaper) (*Client, error) {
	d := net.Dialer{Timeout: DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w: %v", addr, ErrPeerUnavailable, err)
	}
	if shaper != nil {
		conn = shaper.Conn(conn)
	}
	c := &Client{conn: conn, pending: make(map[uint64]chan callResult)}
	c.w = newFrameWriter(conn, c.encodeFailed)
	c.wg.Add(1)
	go c.readLoop()
	return c, nil
}

// callResult is what a pending call receives: the reply, or the local
// error of a request that did not encode.
type callResult struct {
	reply *envelope
	err   error
}

// encodeFailed hands a request that did not encode its plain, non-transport
// error through the call's pending slot; nothing is sent.
func (c *Client) encodeFailed(env *envelope, err error) *envelope {
	c.mu.Lock()
	ch, ok := c.pending[env.ID]
	delete(c.pending, env.ID)
	c.mu.Unlock()
	if ok {
		ch <- callResult{err: err}
	}
	return nil
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	r := bufio.NewReaderSize(c.conn, readBufBytes)
	for {
		env, err := readFrame(r)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		if !env.IsReply {
			continue // this client does not serve requests
		}
		c.mu.Lock()
		ch, ok := c.pending[env.ID]
		if ok {
			delete(c.pending, env.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- callResult{reply: env}
		}
	}
}

// Call sends body and waits for the correlated reply, the context's
// cancellation or its deadline, whichever comes first.
func (c *Client) Call(ctx context.Context, body any) (any, error) {
	return c.CallMeta(ctx, Meta{}, body)
}

// CallMeta sends body with request metadata (the caller's trace context)
// and waits for the correlated reply. The context's deadline, when set and
// tighter than meta.Deadline, is propagated to the server in the envelope so
// remote tiers can shed work that can no longer finish in time. Transport
// failures wrap ErrPeerUnavailable; an elapsed context wraps
// ErrDeadlineExceeded; a body that cannot be encoded (no registered codec,
// or over MaxMessageBytes) fails with a plain error and sends nothing. The
// body is encoded on the connection's frame writer, possibly by another
// goroutine; CallMeta returns only once that is done, so the caller may
// reuse what the body aliases.
func (c *Client) CallMeta(ctx context.Context, meta Meta, body any) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxError(err)
	}
	if d, ok := ctx.Deadline(); ok {
		if ns := d.UnixNano(); meta.Deadline == 0 || ns < meta.Deadline {
			meta.Deadline = ns
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.readErr != nil {
		// The reader has exited (peer closed or connection corrupted): no
		// reply can ever arrive, and a TCP write might still "succeed" into
		// the dead socket, so fail fast instead of waiting forever.
		err := c.readErr
		c.mu.Unlock()
		return nil, fmt.Errorf("rpc: connection lost: %w: %v", ErrPeerUnavailable, err)
	}
	c.nextID++
	id := c.nextID
	ch := make(chan callResult, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	seq := c.w.send(&envelope{ID: id, Meta: meta, Body: body}, nil)
	defer c.w.settle(seq)
	select {
	case res, ok := <-ch:
		if !ok {
			c.mu.Lock()
			readErr := c.readErr
			c.mu.Unlock()
			if readErr != nil {
				return nil, fmt.Errorf("rpc: connection lost: %w: %v", ErrPeerUnavailable, readErr)
			}
			return nil, ErrClosed
		}
		if res.err != nil {
			// Only a failed write is a transport failure: a request that
			// cannot be encoded never left this process, and says nothing
			// about the peer.
			return nil, res.err
		}
		if env := res.reply; env.Err != "" {
			return nil, remoteError(env.Err, env.Code)
		}
		return res.reply.Body, nil
	case <-ctx.Done():
		// Abandon the pending slot: a late reply finds no waiter and is
		// dropped by the read loop (the channel is buffered, so a racing
		// send cannot block it).
		c.release(id)
		return nil, ctxError(ctx.Err())
	}
}

// release frees call id's pending slot.
func (c *Client) release(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// ctxError maps a context error to the package's typed sentinels.
func ctxError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("rpc: call abandoned: %w", ErrDeadlineExceeded)
	}
	return fmt.Errorf("rpc: call cancelled: %w", err)
}

// Close tears down the connection and waits for the reader to exit.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	c.wg.Wait()
	return err
}
