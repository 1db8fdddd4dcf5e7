// Package fleet is the edges' peer registry: a membership registry that
// tracks a set of edge servers through probe-driven heartbeats and exposes a
// consistent, deterministic view of which edges are alive and which are
// *ready* — serving a warm KKT allocation for at least one tenant. An edge
// picks its work-stealing target from it.
//
// The registry is deliberately transport-agnostic: callers inject a Probe
// that performs one heartbeat against one address (the runtime wires it to a
// HeartbeatReq over the binary rpc protocol; tests script it). State
// advances only inside Poll, which probes members synchronously in sorted
// address order, so a scripted probe sequence replays the exact same
// transition sequence every run — the registry itself holds no randomness.
//
// Lifecycle of a member:
//
//	Join ─▶ Joined ──heartbeat ok, ready──▶ Ready
//	           ▲  ╲                          │
//	           │   ╲─heartbeat ok, !ready──◀─┘
//	           │                             │
//	           └──heartbeat ok───── Down ◀───┘ (SuspectAfter misses)
//
// A Down member keeps being probed and rejoins as Joined/Ready on its next
// successful heartbeat — edges restart.
package fleet

import (
	"context"
	"sort"
	"sync"
	"time"
)

// State is a member's position in the registry lifecycle.
type State int

// Registry lifecycle states, in join order.
const (
	// StateJoined means the edge is known and answering heartbeats but has
	// no warm allocation yet (no resident tenants). It must not receive
	// task traffic until a registration warms it.
	StateJoined State = iota
	// StateReady means the edge answered its last heartbeat and reports a
	// warm KKT allocation: it is eligible for task traffic and for stolen
	// work.
	StateReady
	// StateDown means the edge missed SuspectAfter consecutive heartbeats;
	// it receives no traffic until a heartbeat succeeds again.
	StateDown
)

// String names the state for logs and metrics.
func (s State) String() string {
	switch s {
	case StateJoined:
		return "joined"
	case StateReady:
		return "ready"
	case StateDown:
		return "down"
	default:
		return "unknown"
	}
}

// Health is what an edge advertises in one heartbeat: the inputs to
// readiness gating and to the choice of a steal target.
type Health struct {
	// Ready reports whether the edge's KKT allocation is warm (it has at
	// least one resident tenant with a solved share).
	Ready bool
	// BacklogSec is the edge-wide queued work in seconds across all tenant
	// executors (and the steal executor); the least-loaded ready peer is
	// the steal target.
	BacklogSec float64
	// Saturated reports whether any tenant executor is at its admission
	// budget; saturated edges are skipped as steal targets.
	Saturated bool
}

// Member is one edge's registry entry.
type Member struct {
	// Addr is the edge's wire address (the registry key).
	Addr string
	// State is the lifecycle state after the last Poll.
	State State
	// Health is the last successfully advertised health; stale while Down.
	Health Health
	// Misses counts consecutive failed heartbeats.
	Misses int
	// Beats counts successful heartbeats over the member's lifetime.
	Beats uint64
}

// Probe performs one heartbeat against one edge address and returns its
// advertised health. Implementations must honour the context deadline.
type Probe func(ctx context.Context, addr string) (Health, error)

// Config tunes a Registry. The zero value uses the documented defaults.
type Config struct {
	// Every is the heartbeat cadence of the Run loop (default 500ms), and
	// it bounds each of the loop's rounds. Poll ignores it — callers own
	// their own cadence and deadline there.
	Every time.Duration
	// SuspectAfter is how many consecutive missed heartbeats demote a
	// member to StateDown (default 2).
	SuspectAfter int
}

// withDefaults fills unset fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.Every <= 0 {
		c.Every = 500 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	return c
}

// Registry tracks edge fleet membership. All methods are safe for
// concurrent use; state only advances inside Poll (or the Run loop, which
// calls Poll).
type Registry struct {
	cfg   Config
	probe Probe

	mu      sync.Mutex
	members map[string]*Member
}

// New builds a registry over the given probe. Members are added with Join.
func New(cfg Config, probe Probe) *Registry {
	return &Registry{cfg: cfg.withDefaults(), probe: probe, members: make(map[string]*Member)}
}

// Join adds an edge in StateJoined. Joining an existing member is a no-op —
// re-registration keeps the member's observed state.
func (r *Registry) Join(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[addr]; ok {
		return
	}
	r.members[addr] = &Member{Addr: addr, State: StateJoined}
}

// Poll runs one synchronous heartbeat round: every member is probed once,
// in sorted address order, and its state advanced from the outcome. The
// caller's context bounds the whole round (each probe inherits it).
func (r *Registry) Poll(ctx context.Context) {
	for _, addr := range r.addrs() {
		h, err := r.probe(ctx, addr)
		r.mu.Lock()
		m, ok := r.members[addr]
		if !ok { // left mid-round
			r.mu.Unlock()
			continue
		}
		if err != nil {
			m.Misses++
			if m.Misses >= r.cfg.SuspectAfter {
				m.State = StateDown
			}
		} else {
			m.Misses = 0
			m.Beats++
			m.Health = h
			if h.Ready {
				m.State = StateReady
			} else {
				m.State = StateJoined
			}
		}
		r.mu.Unlock()
	}
}

// Run polls on the configured cadence until the context ends, with one
// immediate round up front. Each round is bounded by Every.
func (r *Registry) Run(ctx context.Context) {
	tick := time.NewTicker(r.cfg.Every)
	defer tick.Stop()
	for {
		pctx, cancel := context.WithTimeout(ctx, r.cfg.Every)
		r.Poll(pctx)
		cancel()
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// addrs snapshots member addresses in sorted order.
func (r *Registry) addrs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.members))
	for addr := range r.members {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// Member returns one member's current entry by address.
func (r *Registry) Member(addr string) (Member, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[addr]
	if !ok {
		return Member{}, false
	}
	return *m, true
}

// snapshot returns every member sorted by address.
func (r *Registry) snapshot() []Member {
	out := make([]Member, 0)
	for _, addr := range r.addrs() {
		if m, ok := r.Member(addr); ok {
			out = append(out, m)
		}
	}
	return out
}

// Ready returns the members eligible for task traffic (StateReady), sorted
// by address.
func (r *Registry) Ready() []Member {
	var out []Member
	for _, m := range r.snapshot() {
		if m.State == StateReady {
			out = append(out, m)
		}
	}
	return out
}
