package sim

import (
	"testing"

	"leime/internal/control"
	"leime/internal/telemetry"
)

// TestRunEventsEmitsTestbedSpanSchema runs the event simulator with a tracer
// and checks the emitted traces against the testbed's span schema: one
// "task" root per completed task, children whose parents resolve inside the
// same trace, time-nested spans on the model clock, and an "exit" marker
// matching the sampled exit stage.
func TestRunEventsEmitsTestbedSpanSchema(t *testing.T) {
	cfg := baseEventConfig(2, 4)
	cfg.Slots = 40
	cfg.WarmupSlots = 5
	cfg.Tracer = telemetry.NewTracer(1 << 16)
	res, err := RunEvents(cfg)
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}

	spans := cfg.Tracer.Spans()
	if cfg.Tracer.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans; raise capacity", cfg.Tracer.Dropped())
	}
	type traceSpans struct {
		roots int
		exits []int
		all   []telemetry.Span
	}
	traces := make(map[uint64]*traceSpans)
	for _, s := range spans {
		ts := traces[s.Trace]
		if ts == nil {
			ts = &traceSpans{}
			traces[s.Trace] = ts
		}
		ts.all = append(ts.all, s)
		if s.Parent == 0 {
			ts.roots++
			if s.Name != "task" {
				t.Errorf("root span named %q, want \"task\"", s.Name)
			}
		}
		if s.Name == "exit" {
			ts.exits = append(ts.exits, s.Exit)
		}
		if s.End < s.Start {
			t.Errorf("span %q ends (%f) before it starts (%f)", s.Name, s.End, s.Start)
		}
	}
	if len(traces) != res.Completed {
		t.Errorf("got %d traces, want one per completed task (%d)", len(traces), res.Completed)
	}

	known := map[string]bool{
		"task": true, "device.decision": true, "exit": true,
		"device.queue": true, "device.block1": true,
		"rpc.first_block": true, "rpc.second_block": true, "rpc.cloud": true,
		"edge.queue": true, "edge.block1": true, "edge.block2": true,
		"cloud.queue": true, "cloud.block3": true,
	}
	var exitTally [3]int
	for id, ts := range traces {
		if ts.roots != 1 {
			t.Errorf("trace %d has %d roots, want 1", id, ts.roots)
		}
		if len(ts.exits) != 1 {
			t.Errorf("trace %d has %d exit markers, want 1", id, len(ts.exits))
			continue
		}
		exitTally[ts.exits[0]-1]++
		byID := make(map[uint64]telemetry.Span, len(ts.all))
		for _, s := range ts.all {
			byID[s.Span] = s
			if !known[s.Name] {
				t.Errorf("trace %d has span %q outside the schema", id, s.Name)
			}
		}
		for _, s := range ts.all {
			if s.Parent == 0 {
				continue
			}
			p, ok := byID[s.Parent]
			if !ok {
				t.Errorf("trace %d: span %q parent %d missing", id, s.Name, s.Parent)
				continue
			}
			// The model clock is exact: children nest strictly.
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("trace %d: span %q [%f,%f] escapes parent %q [%f,%f]",
					id, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
	}
	if exitTally != res.ExitCounts {
		t.Errorf("exit markers %v disagree with result exit counts %v", exitTally, res.ExitCounts)
	}
}

// TestRunEventsTracerDoesNotChangeResults pins that telemetry is observational:
// the same seed with and without a tracer yields identical statistics.
func TestRunEventsTracerDoesNotChangeResults(t *testing.T) {
	plain, err := RunEvents(baseEventConfig(2, 5))
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	traced := baseEventConfig(2, 5)
	traced.Tracer = telemetry.NewTracer(1 << 16)
	got, err := RunEvents(traced)
	if err != nil {
		t.Fatalf("RunEvents traced: %v", err)
	}
	if got.Generated != plain.Generated || got.Completed != plain.Completed ||
		got.ExitCounts != plain.ExitCounts || got.TCT.Mean() != plain.TCT.Mean() {
		t.Errorf("tracer changed results: %+v vs %+v", got, plain)
	}
}

// TestRunEventsFirstBlockRefusalOffersSecondBlock runs a backlog budget
// that refuses first blocks: a refused task runs block 1 on its device and
// then offers block 2 to the edge again, as the runtime device does, so
// every refused task with a deeper exit carries an rpc.second_block span
// after its device.block1.
func TestRunEventsFirstBlockRefusalOffersSecondBlock(t *testing.T) {
	cfg := policySimConfig(control.Policy{MaxBacklogSec: 0.1}, 0)
	cfg.Tracer = telemetry.NewTracer(1 << 16)
	if _, err := RunEvents(cfg); err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	if cfg.Tracer.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans; raise capacity", cfg.Tracer.Dropped())
	}
	byTrace := make(map[uint64][]telemetry.Span)
	for _, s := range cfg.Tracer.Spans() {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	refused := 0
	for id, spans := range byTrace {
		var offered, block1, second *telemetry.Span
		exit := 0
		for k := range spans {
			s := &spans[k]
			switch s.Name {
			case "rpc.first_block":
				offered = s
			case "device.block1":
				block1 = s
			case "rpc.second_block":
				second = s
			case "exit":
				exit = s.Exit
			}
		}
		if offered == nil || block1 == nil || exit < 2 {
			continue
		}
		refused++
		if second == nil || second.Start < block1.End {
			t.Errorf("trace %d: first block refused, exit %d, but no rpc.second_block after device.block1", id, exit)
		}
	}
	if refused == 0 {
		t.Fatal("no first-block refusal with a deeper exit; budget too lenient")
	}
}
