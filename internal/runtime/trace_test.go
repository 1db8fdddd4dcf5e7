package runtime

import (
	"testing"

	"leime/internal/offload"
	"leime/internal/telemetry"
	"leime/internal/trace"
)

// TestOffloadedTaskProducesSingleTrace runs one fully-offloaded task that
// survives to the final exit through an in-process device/edge/cloud testbed
// sharing a tracer, and checks the resulting trace: one trace ID, the full
// span taxonomy, consistent parent links and time nesting.
func TestOffloadedTaskProducesSingleTrace(t *testing.T) {
	tr := telemetry.NewTracer(256)
	model := testModel()
	model.Sigma = [3]float64{0, 0, 1} // every task survives to the cloud exit

	cloud := testCloudConfig()
	cloud.Tracer = tr
	tb, err := StartTestbed(cloud, []EdgeConfig{{
		FLOPS:     6e10,
		Model:     model,
		TimeScale: testScale,
		Tracer:    tr,
	}})
	if err != nil {
		t.Fatalf("StartTestbed: %v", err)
	}
	defer tb.Close()

	offloadAll := offload.Policy{
		Name:   "all",
		Decide: func(*offload.Controller, offload.Device, offload.Slot) float64 { return 1 },
	}
	cfg := testDeviceConfig(tb.Edges[0].Addr(), "dev-trace")
	cfg.Model = model
	cfg.Arrivals = &trace.Constant{PerSlot: 1}
	cfg.Policy = &offloadAll
	cfg.Slots = 1
	cfg.WarmupSlots = 0
	cfg.Tracer = tr
	stats, err := RunDevice(cfg)
	if err != nil {
		t.Fatalf("RunDevice: %v", err)
	}
	if stats.Completed != 1 || stats.Errors != 0 {
		t.Fatalf("want 1 clean completion, got completed=%d errors=%d", stats.Completed, stats.Errors)
	}
	if stats.ExitCounts[2] != 1 {
		t.Fatalf("want the task to take exit 3, got exits %v", stats.ExitCounts)
	}

	spans := tr.Spans()
	byID := make(map[uint64]telemetry.Span, len(spans))
	names := make(map[string]int, len(spans))
	var root telemetry.Span
	for _, s := range spans {
		byID[s.Span] = s
		names[s.Name]++
		if s.Parent == 0 {
			root = s
		}
	}

	// One trace: every span shares the root's trace ID.
	if root.Name != "task" {
		t.Fatalf("root span is %q, want \"task\" (spans: %v)", root.Name, names)
	}
	for _, s := range spans {
		if s.Trace != root.Trace {
			t.Errorf("span %q has trace %d, want %d", s.Name, s.Trace, root.Trace)
		}
		if s.Task != root.Task {
			t.Errorf("span %q has task %d, want %d", s.Name, s.Task, root.Task)
		}
	}

	// Full taxonomy: decision, RPC hops, queueing, block compute, exit.
	want := map[string]int{
		"task": 1, "device.decision": 1, "rpc.first_block": 1,
		"edge.queue": 2, "edge.block1": 1, "edge.block2": 1,
		"rpc.cloud": 1, "cloud.queue": 1, "cloud.block3": 1, "exit": 1,
	}
	for name, n := range want {
		if names[name] != n {
			t.Errorf("want %d %q span(s), got %d (all: %v)", n, name, names[name], names)
		}
	}
	if len(spans) != 11 {
		t.Errorf("want 11 spans, got %d: %v", len(spans), names)
	}

	// Parent links resolve within the trace and nest in time. Queue/compute
	// spans are recorded retroactively from executor timings after the
	// enclosing RPC span's work but before it ends, so children always fall
	// inside a live parent; allow a small tolerance for clock reads taken a
	// few instructions apart.
	const eps = 0.05 // tracer-clock seconds
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %q parent %d not in trace", s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start-eps || s.End > p.End+eps {
			t.Errorf("span %q [%f,%f] escapes parent %q [%f,%f]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.End < s.Start {
			t.Errorf("span %q ends (%f) before it starts (%f)", s.Name, s.End, s.Start)
		}
	}
	if tr.Dropped() != 0 {
		t.Errorf("tracer dropped %d spans with capacity to spare", tr.Dropped())
	}
}
