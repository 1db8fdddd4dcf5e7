// Package netem emulates wide-area network conditions on real connections:
// token-bucket bandwidth shaping, propagation delay and jitter, plus
// injectable faults (link blackouts, packet-loss-driven connection resets,
// latency spikes) so fault-tolerance behaviour is testable deterministically.
// It is the reproduction's equivalent of the COMCAST tool the paper uses to
// control bandwidth and latency between testbed tiers.
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

// Shaper paces message sends over a shared link: concurrent senders contend
// for the serialization capacity (a token-bucket clock), and every message
// additionally experiences propagation delay and jitter. An injected Fault
// can black the link out, reset flows probabilistically or spike latency.
// Its zero value is an unshaped, zero-latency, healthy link.
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

// inject decides one message's fate under the current fault: a non-nil
// error means the message is lost and the flow must reset. Spike latency is
// applied separately, inside Acquire.
func (s *Shaper) inject() error {
	s.mu.Lock()
	f := s.fault
	var roll float64
	if f.LossProb > 0 {
		roll = s.rng.Float64()
	}
	s.mu.Unlock()
	if f.Blackout {
		return fmt.Errorf("%w: link blackout", ErrInjected)
	}
	if f.LossProb > 0 && roll < f.LossProb {
		return fmt.Errorf("%w: packet loss (p=%v)", ErrInjected, f.LossProb)
	}
	return nil
}

// Acquire blocks the caller for as long as sending a message of the given
// size over the emulated link would take, and returns the time it slept.
// Serialization contends with other senders; propagation, jitter and spike
// delay do not.
func (s *Shaper) Acquire(bytes int) time.Duration {
	now := time.Now()

	s.mu.Lock()
	start := now
	if s.nextFree.After(start) {
		start = s.nextFree
	}
	serialized := start.Add(s.link.serializationDelay(bytes))
	s.nextFree = serialized
	var jitter time.Duration
	if s.link.Jitter > 0 {
		jitter = time.Duration(s.rng.Int63n(int64(s.link.Jitter) + 1))
	}
	spike := s.fault.SpikeLatency
	s.mu.Unlock()

	deliver := serialized.Add(s.link.Latency + jitter + spike)
	d := deliver.Sub(now)
	if d > 0 {
		time.Sleep(d)
	}
	return d
}

// Conn wraps a real connection so every Write first acquires the emulated
// link. Callers should issue one Write per application message for the
// latency semantics to be faithful (the rpc package does).
func (s *Shaper) Conn(c net.Conn) net.Conn {
	return &shapedConn{Conn: c, shaper: s}
}

type shapedConn struct {
	net.Conn
	shaper *Shaper
}

// Write paces the payload through the emulated link before writing it to
// the underlying connection. An injected fault (blackout or loss) fails the
// write and resets the connection — both directions die, as a real link
// outage would kill the TCP flow.
func (c *shapedConn) Write(p []byte) (int, error) {
	if err := c.shaper.inject(); err != nil {
		_ = c.Conn.Close()
		return 0, err
	}
	c.shaper.Acquire(len(p))
	return c.Conn.Write(p)
}
