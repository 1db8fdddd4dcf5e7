// Package netem emulates wide-area network conditions on real connections:
// token-bucket bandwidth shaping, propagation delay and jitter, plus
// injectable faults (link blackouts, packet-loss-driven connection resets,
// latency spikes) so fault-tolerance behaviour is testable deterministically.
// It is the reproduction's equivalent of the COMCAST tool the paper uses to
// control bandwidth and latency between testbed tiers. As under tc netem, a
// link serializes messages FIFO and their propagation delays overlap: a
// message queued behind another waits out the earlier one's serialization,
// not its latency.
package netem

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjected marks a send that failed because of an injected fault (a
// blackout window or a loss-driven reset). The rpc layer classifies it as a
// transport failure, exactly like a real connection loss.
var ErrInjected = errors.New("netem: injected fault")

// Link describes emulated path characteristics.
type Link struct {
	// BandwidthBps is the link bandwidth in bits per second; zero means
	// unshaped.
	BandwidthBps float64
	// Latency is the one-way propagation delay added to every message.
	Latency time.Duration
	// Jitter is the maximum extra random delay (uniform in [0, Jitter]).
	Jitter time.Duration
}

// Validate reports whether the link is usable.
func (l Link) Validate() error {
	if l.BandwidthBps < 0 {
		return fmt.Errorf("netem: bandwidth %v must be non-negative", l.BandwidthBps)
	}
	if l.Latency < 0 || l.Jitter < 0 {
		return fmt.Errorf("netem: latency %v and jitter %v must be non-negative", l.Latency, l.Jitter)
	}
	return nil
}

// serializationDelay returns the time the link needs to clock out the given
// number of bytes (zero for an unshaped link).
func (l Link) serializationDelay(bytes int) time.Duration {
	if l.BandwidthBps <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) * 8 / l.BandwidthBps * float64(time.Second))
}

// TransferDelay returns serialization plus propagation delay for one message
// (excluding jitter).
func (l Link) TransferDelay(bytes int) time.Duration {
	return l.serializationDelay(bytes) + l.Latency
}

// Fault describes injectable link failures, applied per message on top of
// the configured link. The zero Fault is a healthy link.
type Fault struct {
	// Blackout fails every send while set (the link is down); the wrapped
	// connection is reset, as a real outage would reset TCP flows.
	Blackout bool
	// LossProb drops each message independently with this probability in
	// [0, 1]; a drop resets the wrapped connection (heavy packet loss kills
	// TCP flows rather than delivering half a frame).
	LossProb float64
	// SpikeLatency is extra one-way delay added to every message while set
	// (a congestion or route-flap spike).
	SpikeLatency time.Duration
}

// validate reports whether the fault description is usable.
func (f Fault) validate() error {
	if f.LossProb < 0 || f.LossProb > 1 {
		return fmt.Errorf("netem: loss probability %v must be in [0, 1]", f.LossProb)
	}
	if f.SpikeLatency < 0 {
		return fmt.Errorf("netem: spike latency %v must be non-negative", f.SpikeLatency)
	}
	return nil
}

// Shaper paces message sends over a shared link. Each message is booked at
// the instant its sender queued it: concurrent senders contend FIFO for the
// serialization capacity (a token-bucket clock), and each message is then
// delivered after propagation delay and jitter, which overlap with the next
// message's serialization. An injected Fault can black the link out, reset
// flows probabilistically or spike latency. Its zero value is an unshaped,
// zero-latency, healthy link.
type Shaper struct {
	link Link // fixed at NewShaper

	mu       sync.Mutex
	fault    Fault
	nextFree time.Time
	rng      *rand.Rand
}

// NewShaper builds a shaper for the link.
func NewShaper(link Link, seed int64) (*Shaper, error) {
	if err := link.Validate(); err != nil {
		return nil, err
	}
	return &Shaper{link: link, rng: rand.New(rand.NewSource(seed))}, nil
}

// SetFault replaces the injected fault state at runtime: tests and chaos
// harnesses flip blackouts, loss and latency spikes on a live connection.
func (s *Shaper) SetFault(f Fault) error {
	if err := f.validate(); err != nil {
		return err
	}
	s.mu.Lock()
	s.fault = f
	s.mu.Unlock()
	return nil
}

// book schedules one message of the given size whose sender queued it at
// queued, and returns the instant it is delivered. Serialization starts at
// the later of queued and the instant the link frees, and holds the link
// for the serialization time only; latency, jitter and the fault's spike
// come after it. A non-nil error means the current fault drops the message
// and the flow must reset; a dropped message takes no link time. The fault
// is read under the same lock as the schedule, so a message costs one lock.
func (s *Shaper) book(bytes int, queued time.Time) (time.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.fault
	if f.Blackout {
		return time.Time{}, fmt.Errorf("%w: link blackout", ErrInjected)
	}
	if f.LossProb > 0 && s.rng.Float64() < f.LossProb {
		return time.Time{}, fmt.Errorf("%w: packet loss (p=%v)", ErrInjected, f.LossProb)
	}
	start := queued
	if s.nextFree.After(start) {
		start = s.nextFree
	}
	s.nextFree = start.Add(s.link.serializationDelay(bytes))
	var jitter time.Duration
	if s.link.Jitter > 0 {
		jitter = time.Duration(s.rng.Int63n(int64(s.link.Jitter) + 1))
	}
	return s.nextFree.Add(s.link.Latency + jitter + f.SpikeLatency), nil
}

// Acquire books a message of the given size sent now, blocks the caller
// until its delivery, and returns the time it slept. Serialization contends
// with other senders; propagation, jitter and spike delay do not. A message
// the current fault drops is not paced: Acquire returns 0 at once.
func (s *Shaper) Acquire(bytes int) time.Duration {
	now := time.Now()
	deliver, err := s.book(bytes, now)
	if err != nil {
		return 0
	}
	d := deliver.Sub(now)
	if d > 0 {
		time.Sleep(d)
	}
	return d
}

// Conn wraps a real connection so every write is first paced through the
// emulated link. Callers should issue one write per application message for
// the latency semantics to be faithful. Besides Write, the connection has
// WriteQueued(p []byte, queued time.Time), for a writer that sends from a
// queue: the rpc package passes each frame's enqueue time, so a frame is
// booked when its sender queued it rather than when the writer reached it.
func (s *Shaper) Conn(c net.Conn) net.Conn {
	return &shapedConn{Conn: c, shaper: s}
}

type shapedConn struct {
	net.Conn
	shaper *Shaper
}

// Write is WriteQueued for a payload queued now.
func (c *shapedConn) Write(p []byte) (int, error) {
	return c.WriteQueued(p, time.Now())
}

// WriteQueued paces a payload its sender queued at queued through the
// emulated link, then writes it to the underlying connection. The link books
// it from queued, not from the call, so a writer that works through a queue
// holds each message only until that message's own delivery. An injected
// fault (blackout or loss) fails the write and resets the connection: both
// directions die, as a real link outage would kill the TCP flow.
func (c *shapedConn) WriteQueued(p []byte, queued time.Time) (int, error) {
	deliver, err := c.shaper.book(len(p), queued)
	if err != nil {
		_ = c.Conn.Close()
		return 0, err
	}
	if d := time.Until(deliver); d > 0 {
		time.Sleep(d)
	}
	return c.Conn.Write(p)
}
