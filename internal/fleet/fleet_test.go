package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// scriptedProbe replays per-address outcome sequences: each Poll consumes
// the next outcome for every member, making transition tests fully
// deterministic.
type scriptedProbe struct {
	outcomes map[string][]probeOutcome
	calls    []string
}

type probeOutcome struct {
	h   Health
	err error
}

func (p *scriptedProbe) probe(_ context.Context, addr string) (Health, error) {
	p.calls = append(p.calls, addr)
	q := p.outcomes[addr]
	if len(q) == 0 {
		return Health{}, errors.New("script exhausted")
	}
	out := q[0]
	p.outcomes[addr] = q[1:]
	return out.h, out.err
}

func ready(edgeFLOPS float64, tenants int) probeOutcome {
	return probeOutcome{h: Health{Ready: true, FLOPS: edgeFLOPS, Tenants: tenants}}
}

func joined() probeOutcome { return probeOutcome{h: Health{Ready: false}} }

func miss() probeOutcome { return probeOutcome{err: errors.New("unreachable")} }

// TestRegistryLifecycle drives one member through the full state machine:
// joined → ready → (one miss survives) → down after SuspectAfter misses →
// ready again on recovery.
func TestRegistryLifecycle(t *testing.T) {
	p := &scriptedProbe{outcomes: map[string][]probeOutcome{
		"edge-a": {joined(), ready(4e9, 1), miss(), miss(), miss(), ready(4e9, 2)},
	}}
	var transitions []string
	r := New(Config{SuspectAfter: 2, OnChange: func(addr string, from, to State) {
		transitions = append(transitions, fmt.Sprintf("%s:%s->%s", addr, from, to))
	}}, p.probe)
	r.Join("edge-a")

	m, ok := r.Member("edge-a")
	if !ok || m.State != StateJoined {
		t.Fatalf("after Join: member=%+v ok=%v, want StateJoined", m, ok)
	}

	wantStates := []State{
		StateJoined, // heartbeat ok, not ready
		StateReady,  // allocation warm
		StateReady,  // one miss: below SuspectAfter
		StateDown,   // second consecutive miss
		StateDown,   // still down
		StateReady,  // recovered
	}
	for i, want := range wantStates {
		r.Poll(context.Background())
		m, _ := r.Member("edge-a")
		if m.State != want {
			t.Fatalf("poll %d: state %v, want %v", i, m.State, want)
		}
	}
	m, _ = r.Member("edge-a")
	if m.Beats != 3 {
		t.Errorf("beats = %d, want 3", m.Beats)
	}
	if m.Health.Tenants != 2 {
		t.Errorf("health not updated on recovery: %+v", m.Health)
	}
	wantTransitions := []string{
		"edge-a:joined->ready",
		"edge-a:ready->down",
		"edge-a:down->ready",
	}
	if !reflect.DeepEqual(transitions, wantTransitions) {
		t.Errorf("transitions = %v, want %v", transitions, wantTransitions)
	}
}

// TestRegistryDeterministicOrder asserts members are probed in sorted
// address order regardless of join order, so identical scripts replay
// identical transition sequences.
func TestRegistryDeterministicOrder(t *testing.T) {
	p := &scriptedProbe{outcomes: map[string][]probeOutcome{
		"edge-c": {ready(1, 1), ready(1, 1)},
		"edge-a": {ready(1, 1), ready(1, 1)},
		"edge-b": {miss(), miss()},
	}}
	r := New(Config{}, p.probe)
	r.Join("edge-c")
	r.Join("edge-b")
	r.Join("edge-a")
	r.Poll(context.Background())
	r.Poll(context.Background())
	want := []string{"edge-a", "edge-b", "edge-c", "edge-a", "edge-b", "edge-c"}
	if !reflect.DeepEqual(p.calls, want) {
		t.Errorf("probe order = %v, want %v", p.calls, want)
	}
	snap := r.snapshot()
	if len(snap) != 3 || snap[0].Addr != "edge-a" || snap[2].Addr != "edge-c" {
		t.Errorf("snapshot not sorted: %+v", snap)
	}
}

// TestRegistryReadyAliveLeave covers the ready and alive membership views.
func TestRegistryReadyAliveLeave(t *testing.T) {
	p := &scriptedProbe{outcomes: map[string][]probeOutcome{
		"edge-a": {ready(1, 1)},
		"edge-b": {joined()},
		"edge-c": {miss()},
	}}
	r := New(Config{SuspectAfter: 1}, p.probe)
	for _, a := range []string{"edge-a", "edge-b", "edge-c"} {
		r.Join(a)
	}
	r.Join("edge-a") // idempotent
	r.Poll(context.Background())

	if got := r.Ready(); len(got) != 1 || got[0].Addr != "edge-a" {
		t.Errorf("Ready() = %+v, want [edge-a]", got)
	}
	// Joined and Ready members answer heartbeats; a missed probe does not.
	var alive []string
	for _, m := range r.snapshot() {
		if m.State == StateJoined || m.State == StateReady {
			alive = append(alive, m.Addr)
		}
	}
	if !reflect.DeepEqual(alive, []string{"edge-a", "edge-b"}) {
		t.Errorf("alive members = %v, want [edge-a edge-b]", alive)
	}
}

// TestRegistryRunStopsOnCancel asserts the Run loop exits once its context
// ends (after the mandatory initial round).
func TestRegistryRunStopsOnCancel(t *testing.T) {
	p := &scriptedProbe{outcomes: map[string][]probeOutcome{"edge-a": {ready(1, 1)}}}
	r := New(Config{}, p.probe)
	r.Join("edge-a")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	go func() {
		r.Run(ctx)
		close(done)
	}()
	<-done
	if m, _ := r.Member("edge-a"); m.Beats != 1 {
		t.Errorf("beats = %d, want exactly the initial round", m.Beats)
	}
}
