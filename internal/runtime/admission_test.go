package runtime

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"leime/internal/offload"
	"leime/internal/telemetry"
)

// TestExecutorAdmissionRejectsOverBudget floods a budgeted executor from
// many goroutines and checks the invariants of the rejection path: some
// work is refused with ErrOverloaded, accepted work all completes, and the
// backlog drains to zero. The concurrent submitters make this the -race
// exercise of the admission bookkeeping.
func TestExecutorAdmissionRejectsOverBudget(t *testing.T) {
	// Budget: 0.2s of work at 1e9 FLOPS = 2e8 FLOPs. Each job is 5e7
	// FLOPs (50ms), so at most 4 jobs fit the backlog at once.
	e, err := NewExecutor(1e9, 1, WithPolicy(ControlPolicy{MaxBacklogSec: 0.2}))
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()

	const submitters = 32
	var accepted, rejected atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch _, _, err := e.DoTimed(5e7); {
			case err == nil:
				accepted.Add(1)
			case errors.Is(err, ErrOverloaded):
				rejected.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if rejected.Load() == 0 {
		t.Error("no rejections despite 32 concurrent submitters against a 4-job budget")
	}
	if accepted.Load() == 0 {
		t.Error("everything rejected; admission must still accept work within budget")
	}
	if got := e.BacklogSeconds(); got != 0 {
		t.Errorf("backlog after drain = %v, want 0", got)
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("pending after drain = %d, want 0", got)
	}
}

// TestExecutorAdmissionUnboundedByDefault checks the zero budget keeps the
// pre-admission-control behaviour: everything queues.
func TestExecutorAdmissionUnboundedByDefault(t *testing.T) {
	e, err := NewExecutor(1e9, 1)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Do(1e6); err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	wg.Wait()
}

// runBudgetedDevice drives an insistently offloading device against a slow
// edge whose tenant queues are bounded by a backlog budget of about one
// first-block task, both tiers recording into tr (nil disables tracing).
func runBudgetedDevice(t *testing.T, tr *telemetry.Tracer) *DeviceStats {
	t.Helper()
	edge, err := StartEdge(EdgeConfig{
		Addr:  "127.0.0.1:0",
		FLOPS: 2e9, // slow edge: backlog actually builds
		Model: testModel(),
		// ~1 first-block task of budget at full share.
		Policy:    ControlPolicy{MaxBacklogSec: 0.15},
		TimeScale: testScale,
		Tracer:    tr,
	})
	if err != nil {
		t.Fatalf("StartEdge: %v", err)
	}
	defer edge.Close()

	cfg := testDeviceConfig(edge.Addr(), "budgeted")
	eOnly := offload.EdgeOnly()
	cfg.Policy = &eOnly // insist on offloading so the budget must trip
	cfg.ArrivalMean = 8
	cfg.Slots = 25
	cfg.Tracer = tr
	stats, err := RunDevice(cfg)
	if err != nil {
		t.Fatalf("RunDevice: %v", err)
	}
	return stats
}

// TestEdgeBacklogBudgetTriggersLocalFallback drives an insistently
// offloading device against an edge whose tenant queues are bounded by the
// backlog budget. The rejections must surface device-side as fallbacks, not
// errors, and every task must still complete — the degrade-to-local
// contract of ErrOverloaded.
func TestEdgeBacklogBudgetTriggersLocalFallback(t *testing.T) {
	stats := runBudgetedDevice(t, nil)
	if stats.Errors != 0 {
		t.Errorf("%d task errors despite degrade-to-local fallback", stats.Errors)
	}
	if stats.Completed != stats.Generated {
		t.Errorf("conservation: completed %d != generated %d", stats.Completed, stats.Generated)
	}
	if stats.Fallbacks == 0 {
		t.Error("backlog budget never tripped; test configuration too lenient")
	}
	if stats.Degraded != 0 {
		t.Errorf("overload misclassified as unreachability: %d degraded", stats.Degraded)
	}
}

// TestEdgeRefusedSecondBlockRunsBlockOnce drives the backlog-budget set-up
// above with one tracer for both tiers. The budget refuses many a block 2
// after the edge served block 1; the device must then run the remaining
// blocks from block 2, so no trace holds block 1 on both tiers, and some
// trace holds block 1 at the edge followed by block 2 on the device.
func TestEdgeRefusedSecondBlockRunsBlockOnce(t *testing.T) {
	tr := telemetry.NewTracer(1 << 14)
	stats := runBudgetedDevice(t, tr)
	if stats.Errors != 0 || stats.Completed != stats.Generated {
		t.Fatalf("completed %d of %d with %d errors", stats.Completed, stats.Generated, stats.Errors)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans", tr.Dropped())
	}
	type blocks struct {
		edge1End, dev1, dev2Start float64
	}
	traces := map[uint64]*blocks{}
	for _, s := range tr.Spans() {
		b := traces[s.Trace]
		if b == nil {
			b = &blocks{edge1End: -1, dev1: -1, dev2Start: -1}
			traces[s.Trace] = b
		}
		switch s.Name {
		case "edge.block1":
			b.edge1End = s.End
		case "device.block1":
			b.dev1 = s.Start
		case "device.block2":
			b.dev2Start = s.Start
		}
	}
	twice, handedOn := 0, 0
	for _, b := range traces {
		if b.edge1End >= 0 && b.dev1 >= 0 {
			twice++
		}
		if b.edge1End >= 0 && b.dev2Start >= b.edge1End {
			handedOn++
		}
	}
	t.Logf("%d of %d tasks ran block 2 on the device after block 1 at the edge", handedOn, len(traces))
	if twice != 0 {
		t.Errorf("%d of %d tasks ran block 1 on both the edge and the device", twice, len(traces))
	}
	if handedOn == 0 {
		t.Error("no task ran block 2 on the device after the edge ran block 1; budget too lenient")
	}
}
