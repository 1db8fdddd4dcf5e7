package runtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"leime/internal/control"
	"leime/internal/offload"
	"leime/internal/rpc"
)

// TestBatchConfigSemantics pins how a policy's batch window reaches the
// executor: the zero policy does not batch, a static window is kept as
// configured, and an adaptive window fills its zero ceilings with
// control.DefaultAdaptiveBatchSize and DefaultAdaptiveDelayCapSec, keeping
// the rest.
func TestBatchConfigSemantics(t *testing.T) {
	cases := []struct {
		pol  ControlPolicy
		want control.Batch
	}{
		{ControlPolicy{}, control.Batch{}},
		{ControlPolicy{Batch: control.Batch{MaxSize: 4}}, control.Batch{MaxSize: 4}},
		{ControlPolicy{Batch: control.Batch{MaxSize: 4, MaxDelaySec: 0.01, Marginal: 1}},
			control.Batch{MaxSize: 4, MaxDelaySec: 0.01, Marginal: 1}},
		{ControlPolicy{AdaptiveBatch: true},
			control.Batch{MaxSize: control.DefaultAdaptiveBatchSize, MaxDelaySec: control.DefaultAdaptiveDelayCapSec}},
		{ControlPolicy{AdaptiveBatch: true, Batch: control.Batch{MaxSize: 4, Marginal: 0.5}},
			control.Batch{MaxSize: 4, MaxDelaySec: control.DefaultAdaptiveDelayCapSec, Marginal: 0.5}},
	}
	for _, c := range cases {
		e, err := NewExecutor(1e9, 1, WithPolicy(c.pol))
		if err != nil {
			t.Fatalf("NewExecutor: %v", err)
		}
		if e.batch != c.want {
			t.Errorf("policy %+v: executor batch %+v, want %+v", c.pol, e.batch, c.want)
		}
		if (e.q.Window() != nil) != c.pol.AdaptiveBatch {
			t.Errorf("policy %+v: adaptive window installed = %v", c.pol, e.q.Window() != nil)
		}
		e.Close()
	}
}

// TestExecutorBatchAmortizes submits co-arriving same-FLOPs jobs to a
// batching executor and checks they complete together in far less time
// than serial FIFO service would take.
func TestExecutorBatchAmortizes(t *testing.T) {
	const jobs = 8
	// One job burns 50ms; serial service of 8 takes 400ms. A full batch
	// burns 50ms*(1+7*0.25) = 87.5ms.
	e, err := NewExecutor(1e9, 1, WithPolicy(ControlPolicy{Batch: control.Batch{MaxSize: jobs, MaxDelaySec: 0.2}}))
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()

	start := time.Now()
	var wg sync.WaitGroup
	services := make([]time.Duration, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, service, err := e.DoTimed(5e7)
			if err != nil {
				t.Errorf("DoTimed: %v", err)
			}
			services[i] = service
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Window (200ms) + amortized burn (87.5ms) plus slack; far under the
	// 400ms serial floor.
	if elapsed > 380*time.Millisecond {
		t.Errorf("batched completion took %v, want well under the 400ms serial floor", elapsed)
	}
	// All batched jobs observe the same service duration (they co-complete).
	for i := 1; i < jobs; i++ {
		if services[i] != services[0] {
			t.Errorf("service[%d] = %v != service[0] = %v (expected one shared batch burn)", i, services[i], services[0])
			break
		}
	}
}

// TestExecutorBatchPreservesClassSeparation checks that jobs of different
// FLOPs classes (different DNN blocks) never share a batch: a class change
// caps the open batch so FIFO order holds.
func TestExecutorBatchPreservesClassSeparation(t *testing.T) {
	e, err := NewExecutor(1e9, 1, WithPolicy(ControlPolicy{Batch: control.Batch{MaxSize: 8, MaxDelaySec: 0.05}}))
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	serviced := map[float64]time.Duration{}
	for _, flops := range []float64{2e7, 2e7, 4e7, 4e7} {
		wg.Add(1)
		go func(flops float64) {
			defer wg.Done()
			_, service, err := e.DoTimed(flops)
			if err != nil {
				t.Errorf("DoTimed: %v", err)
				return
			}
			mu.Lock()
			if prev, ok := serviced[flops]; !ok || service > prev {
				serviced[flops] = service
			}
			mu.Unlock()
		}(flops)
		time.Sleep(5 * time.Millisecond) // deterministic queue order
	}
	wg.Wait()
	// Classes were batched separately: each class's service reflects its
	// own amortized burn (2 jobs at marginal 0.25 = 1.25x a lone job), so
	// the 4e7 class must take measurably longer than the 2e7 class.
	if serviced[4e7] <= serviced[2e7] {
		t.Errorf("per-class service times not separated: 2e7 -> %v, 4e7 -> %v", serviced[2e7], serviced[4e7])
	}
}

// TestExecutorBatchWindowRespectsCancellation cancels a queued job while a
// batch window is open and checks it is dropped unburned while the rest of
// the batch completes.
func TestExecutorBatchWindowRespectsCancellation(t *testing.T) {
	e, err := NewExecutor(1e9, 1, WithPolicy(ControlPolicy{Batch: control.Batch{MaxSize: 4, MaxDelaySec: 0.25}}))
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	var cancelledErr error
	go func() {
		defer wg.Done()
		_, _, cancelledErr = e.DoTimedCtx(ctx, 5e7)
	}()
	go func() {
		defer wg.Done()
		if _, _, err := e.DoTimed(5e7); err != nil {
			t.Errorf("surviving job: %v", err)
		}
	}()
	// Both queued inside the open 250 ms window.
	waitUntil(t, "both jobs queued", func() bool { return e.Pending() == 2 })
	cancel()
	wg.Wait()
	if !errors.Is(cancelledErr, context.Canceled) {
		t.Errorf("cancelled job returned %v, want context.Canceled", cancelledErr)
	}
}

// TestEdgeBatchingServesWorkload runs a real offloading workload against a
// batching edge and checks every task completes with no errors — batching
// must be behaviour-preserving at the protocol level.
func TestEdgeBatchingServesWorkload(t *testing.T) {
	cloud, err := StartCloud(CloudConfig{
		Addr:        "127.0.0.1:0",
		FLOPS:       2e12,
		Block3FLOPs: testModel().Mu[2],
		TimeScale:   testScale,
	})
	if err != nil {
		t.Fatalf("StartCloud: %v", err)
	}
	t.Cleanup(func() { _ = cloud.Close() })
	edge, err := StartEdge(EdgeConfig{
		Addr:      "127.0.0.1:0",
		FLOPS:     6e10,
		Model:     testModel(),
		CloudAddr: cloud.Addr(),
		TimeScale: testScale,
		Policy:    ControlPolicy{Batch: control.Batch{MaxSize: 8, MaxDelaySec: 0.05}},
	})
	if err != nil {
		t.Fatalf("StartEdge: %v", err)
	}
	t.Cleanup(func() { _ = edge.Close() })

	cfg := testDeviceConfig(edge.Addr(), "batch-dev")
	eOnly := offload.EdgeOnly()
	cfg.Policy = &eOnly
	stats, err := RunDevice(cfg)
	if err != nil {
		t.Fatalf("RunDevice: %v", err)
	}
	if stats.Completed != stats.Generated || stats.Generated == 0 {
		t.Fatalf("conservation: generated %d, completed %d", stats.Generated, stats.Completed)
	}
	if stats.Errors != 0 {
		t.Errorf("errors = %d, want 0", stats.Errors)
	}
}

// TestOverloadedErrorCrossesWire checks the ErrOverloaded sentinel is
// registered with the rpc error-code registry so errors.Is classifies it on
// the device side of a connection.
func TestOverloadedErrorCrossesWire(t *testing.T) {
	RegisterMessages()
	srv, err := rpc.Serve("127.0.0.1:0", func(ctx context.Context, body any) (any, error) {
		return nil, ErrOverloaded
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	c, err := rpc.Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	_, err = c.Call(context.Background(), QueueStatReq{DeviceID: "x"})
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("remote error %v does not classify as ErrOverloaded", err)
	}
	if !backpressured(err) {
		t.Errorf("remote overload %v not recognized as backpressure", err)
	}
}
