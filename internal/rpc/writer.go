// Frame writer: the one path from envelopes to a connection, for a Server's
// replies and a Client's requests alike.
//
// Senders queue envelopes, not encoded frames. Whichever sender finds the
// writer idle becomes the flusher: it yields once so that runnable senders
// can queue behind it, takes the queue, encodes it back to back into pooled
// encoders and writes each run of up to runBytes with one call — a writev on
// a TCP connection. A connection without writev (netem's shaped one) gets
// one Write per frame, which keeps netem's one-message-per-Write pacing
// true. The flusher writes that one batch and returns to its caller; frames
// queued meanwhile go to a drain goroutine, so no caller waits out another
// caller's shaped write. Encoding at the flusher bounds the encoded bytes a
// connection holds to one run, whatever the queue depth.
package rpc

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
)

// runBytes is the run length at which the flusher stops encoding and
// writes.
const runBytes = 64 << 10

// outFrame is one queued envelope. frame, when set, is the server's request
// frame, released once env is encoded: an echoing handler's reply aliases
// it, and the encoder copies what it aliases.
type outFrame struct {
	env   envelope
	frame []byte
}

// frameWriter owns the write side of one connection.
type frameWriter struct {
	conn net.Conn
	// encodeFailed answers an envelope that does not encode: it returns the
	// envelope to send in its place, or nil to send nothing.
	encodeFailed func(env *envelope, err error) *envelope

	mu     sync.Mutex
	queue  []outFrame
	spare  []outFrame // the last batch's backing array, for reuse
	queued uint64     // sequence number of the last queued frame
	busy   bool       // a flusher or drain goroutine owns the connection
	err    error      // sticky write error; the connection is closed

	// encoded is the sequence number up to which every queued frame is
	// encoded or dropped; settle waits on it through settled.
	encoded atomic.Uint64
	waiters atomic.Int32
	settled sync.Cond

	drains sync.WaitGroup

	// Flusher scratch, touched only by the goroutine that owns busy.
	encs []*Encoder
	iov  [][]byte
	run  net.Buffers
}

func newFrameWriter(conn net.Conn, encodeFailed func(*envelope, error) *envelope) *frameWriter {
	w := &frameWriter{conn: conn, encodeFailed: encodeFailed}
	w.settled.L = &w.mu
	return w
}

// send queues env and returns its sequence number for settle. frame, if
// non-nil, is released once env is encoded. After a write error the writer
// drops what it is sent (the connection is closed, so a client's reader
// fails every pending call) and returns 0. The queueing lives in enqueue so
// that send's own frame stays small: a server's request goroutine flushes
// on the small stack it started with, and growing that stack on every
// request showed up as a copystack in BenchmarkCallLarge's profile.
func (w *frameWriter) send(env *envelope, frame []byte) uint64 {
	seq, flusher := w.enqueue(env, frame)
	if flusher && w.flush() {
		w.drains.Add(1)
		go w.drain()
	}
	return seq
}

// enqueue queues env and reports whether the caller found the writer idle
// and so became its flusher.
func (w *frameWriter) enqueue(env *envelope, frame []byte) (seq uint64, flusher bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		if frame != nil {
			putFrameBuf(frame)
		}
		return 0, false
	}
	w.queue = append(w.queue, outFrame{env: *env, frame: frame})
	w.queued++
	flusher = !w.busy
	w.busy = true
	return w.queued, flusher
}

// drain flushes until the queue stays empty.
func (w *frameWriter) drain() {
	defer w.drains.Done()
	for w.flush() {
	}
}

// flush writes one batch. It reports whether more frames queued while it
// wrote, in which case the caller still owns the connection and must flush
// again; otherwise the writer is idle.
func (w *frameWriter) flush() (more bool) {
	runtime.Gosched()
	w.mu.Lock()
	batch, failed := w.queue, w.err != nil
	seq := w.queued - uint64(len(batch))
	w.queue = w.spare
	w.mu.Unlock()

	size := 0
	for i := range batch {
		f := &batch[i]
		if !failed {
			if e := w.encode(&f.env); e != nil {
				w.encs = append(w.encs, e)
				size += len(e.buf)
			}
		}
		if f.frame != nil {
			putFrameBuf(f.frame)
		}
		if size < runBytes && i < len(batch)-1 {
			continue
		}
		w.publish(seq + uint64(i+1))
		size = 0
		if len(w.encs) > 0 {
			if err := w.writeRun(); err != nil {
				w.fail(err)
				failed = true
			}
		}
	}

	clear(batch)
	w.mu.Lock()
	w.spare = batch[:0]
	more = len(w.queue) > 0
	w.busy = more
	w.mu.Unlock()
	return more
}

// encode encodes env, or what encodeFailed sends in its place.
func (w *frameWriter) encode(env *envelope) *Encoder {
	e, err := encodeFrame(env)
	if err == nil {
		return e
	}
	if env = w.encodeFailed(env, err); env == nil {
		return nil
	}
	e, _ = encodeFrame(env) // a bodiless error envelope always encodes
	return e
}

// writeRun writes the encoded run with one call and returns its encoders.
// A single frame goes out with a plain Write, cheaper than a writev of one.
// WriteTo consumes the net.Buffers it is called on, so run is a copy of
// iov's header and iov keeps the backing array for the next run.
func (w *frameWriter) writeRun() error {
	var err error
	if len(w.encs) == 1 {
		_, err = w.conn.Write(w.encs[0].buf)
	} else {
		for _, e := range w.encs {
			w.iov = append(w.iov, e.buf)
		}
		w.run = w.iov
		_, err = w.run.WriteTo(w.conn)
		clear(w.iov)
		w.iov = w.iov[:0]
	}
	for _, e := range w.encs {
		putEncoder(e)
	}
	clear(w.encs)
	w.encs = w.encs[:0]
	return err
}

// fail makes a write error sticky and closes the connection.
func (w *frameWriter) fail(err error) {
	w.mu.Lock()
	w.err = err
	w.mu.Unlock()
	_ = w.conn.Close()
}

// publish marks every frame up to seq encoded or dropped.
func (w *frameWriter) publish(seq uint64) {
	w.encoded.Store(seq)
	if w.waiters.Load() > 0 {
		w.mu.Lock()
		w.settled.Broadcast()
		w.mu.Unlock()
	}
}

// settle returns once frame seq is encoded or dropped. From then on nothing
// reads the envelope's body, so its sender may reuse what the body aliases.
func (w *frameWriter) settle(seq uint64) {
	if w.encoded.Load() >= seq {
		return
	}
	w.waiters.Add(1)
	w.mu.Lock()
	for w.encoded.Load() < seq {
		w.settled.Wait()
	}
	w.mu.Unlock()
	w.waiters.Add(-1)
}
