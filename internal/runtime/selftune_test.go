package runtime

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leime/internal/offload"
	"leime/internal/rpc"
)

// TestExecutorEDFServesEarliestDeadlineFirst parks a blocker on the server,
// enqueues contenders whose deadlines are a random permutation of their
// submission order, and checks the observed waits sort by deadline: the job
// with the k-th earliest deadline waits k service times, regardless of when
// it arrived. Under FIFO the waits would sort by submission order instead.
func TestExecutorEDFServesEarliestDeadlineFirst(t *testing.T) {
	e, err := NewExecutor(1e9, 1, WithPolicy(ControlPolicy{EDF: true}))
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()

	// The blocker carries the earliest deadline of all, so EDF serves it
	// first even if the dispatcher has not claimed it yet when the
	// contenders arrive — the ordering below cannot race on its start.
	base := time.Now().Add(30 * time.Second)
	var blockWG sync.WaitGroup
	blockWG.Add(1)
	go func() {
		defer blockWG.Done()
		ctx, cancel := context.WithDeadline(context.Background(), base.Add(-time.Second))
		defer cancel()
		if _, _, err := e.DoTimedCtx(ctx, 5e8); err != nil { // 500ms of service
			t.Errorf("blocker: %v", err)
		}
	}()
	admitBy := time.Now().Add(2 * time.Second)
	for e.Pending() == 0 {
		if time.Now().After(admitBy) {
			t.Fatal("blocker never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	const (
		n      = 12
		perJob = 8e6 // 8ms at 1e9 FLOPS: one rank step in the wait ladder
	)
	// perm[i] is job i's deadline rank: rank 0 has the earliest deadline.
	perm := rand.New(rand.NewSource(42)).Perm(n)
	waits := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(),
				base.Add(time.Duration(perm[i])*time.Second))
			defer cancel()
			wait, _, err := e.DoTimedCtx(ctx, perJob)
			if err != nil {
				t.Errorf("contender %d: %v", i, err)
			}
			waits[i] = wait
		}(i)
	}
	// Every contender must be queued while the blocker still runs, or the
	// ordering claim below is vacuous.
	enqBy := time.Now().Add(400 * time.Millisecond)
	for e.Pending() < n+1 {
		if time.Now().After(enqBy) {
			t.Fatal("contenders failed to enqueue while the blocker ran")
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	blockWG.Wait()

	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if perm[i] < perm[j] && waits[i] > waits[j]+4*time.Millisecond {
				t.Errorf("EDF inversion: rank %d waited %v, rank %d waited %v",
					perm[i], waits[i], perm[j], waits[j])
			}
		}
	}
}

// TestExecutorEDFConcurrentStress hammers an EDF executor from many
// goroutines mixing deadline and no-deadline jobs, cancellations, rate
// changes and stat reads. Under -race this is the memory-safety proof of
// the sorted-insert enqueue path; the assertions check conservation.
func TestExecutorEDFConcurrentStress(t *testing.T) {
	e, err := NewExecutor(1e9, 0.001, WithPolicy(ControlPolicy{
		EDF:           true,
		MaxBacklogSec: 5,
	}))
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	classes := []float64{1e7, 2e7, 3e7}
	const (
		workers  = 8
		jobsPerW = 25
	)
	var completed, cancelled, rejected, closedErr atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < jobsPerW; i++ {
				flops := classes[rng.Intn(len(classes))]
				ctx := context.Background()
				var cancel context.CancelFunc
				switch i % 3 {
				case 0: // deadline job: exercises the sorted insert
					ctx, cancel = context.WithDeadline(ctx,
						time.Now().Add(time.Duration(1+rng.Intn(2000))*time.Millisecond+10*time.Second))
				case 1: // cancelled while queued
					ctx, cancel = context.WithCancel(ctx)
					delay := time.Duration(rng.Intn(200)) * time.Microsecond
					go func() {
						time.Sleep(delay)
						cancel()
					}()
				}
				_, _, err := e.DoTimedCtx(ctx, flops)
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, context.Canceled):
					cancelled.Add(1)
				case errors.Is(err, ErrOverloaded):
					rejected.Add(1)
				case errors.Is(err, ErrExecutorClosed):
					closedErr.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
				if cancel != nil {
					cancel()
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var ctlWG sync.WaitGroup
	ctlWG.Add(1)
	go func() {
		defer ctlWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.setRate(1e9 + float64(i%7)*1e8); err != nil {
				t.Errorf("SetRate: %v", err)
			}
			_ = e.Pending()
			_ = quotedWait(e)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)
	ctlWG.Wait()
	e.Close()

	total := completed.Load() + cancelled.Load() + rejected.Load() + closedErr.Load()
	if total != workers*jobsPerW {
		t.Errorf("conservation: %d outcomes for %d jobs", total, workers*jobsPerW)
	}
	if completed.Load() == 0 {
		t.Error("no job completed")
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending after drain = %d, want 0", got)
	}
}

// TestDeadlineAdmissionRejectsInfeasible checks the admission quote: a job
// whose service time alone exceeds its context deadline is refused with
// ErrDeadlineInfeasible — which classifies as ErrOverloaded but not as the
// capacity reason.
func TestDeadlineAdmissionRejectsInfeasible(t *testing.T) {
	e, err := NewExecutor(1e9, 1, WithPolicy(ControlPolicy{DeadlineAdmission: true}))
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, _, err = e.DoTimedCtx(ctx, 1e9) // 1s of service against a 100ms deadline
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("err = %v, want ErrDeadlineInfeasible", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("ErrDeadlineInfeasible must classify as ErrOverloaded")
	}
	if errors.Is(err, ErrOverloadCapacity) {
		t.Errorf("deadline rejection must not classify as the capacity reason")
	}
	// A feasible job on the same executor is admitted.
	if _, _, err := e.DoTimedCtx(ctx, 1e6); err != nil {
		t.Errorf("feasible job rejected: %v", err)
	}
}

// TestPredictorCalibratesOnExecutor trains the admission predictor with a
// stream of deadline-carrying jobs, then checks the quote against a known
// queue state: with a 100ms blocker holding the server, the predicted wait
// for the next arrival must bracket the observed wait within a small
// factor, and the learned bias must sit inside its clamp.
func TestPredictorCalibratesOnExecutor(t *testing.T) {
	e, err := NewExecutor(1e9, 1, WithPolicy(ControlPolicy{DeadlineAdmission: true}))
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()

	// Training: 40 jobs, 4 concurrent submitters, generous deadlines so
	// admission always passes and every completion feeds Observe.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if _, _, err := e.DoTimedCtx(ctx, 2e7); err != nil {
					t.Errorf("training job: %v", err)
				}
				cancel()
			}
		}()
	}
	wg.Wait()

	if bias := quotedWait(e); bias != 0 {
		t.Errorf("drained executor quotes wait %v, want 0", bias)
	}

	// Measurement: blocker occupies the server; the quote for an arrival
	// now must match the wait that arrival actually observes.
	var blockWG sync.WaitGroup
	blockWG.Add(1)
	go func() {
		defer blockWG.Done()
		if err := e.Do(1e8); err != nil { // 100ms
			t.Errorf("blocker: %v", err)
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for e.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	predicted := quotedWait(e)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wait, _, err := e.DoTimedCtx(ctx, 1e6)
	blockWG.Wait()
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	observed := wait.Seconds()
	if predicted <= 0 {
		t.Fatalf("predicted wait %v behind a 100ms blocker, want > 0", predicted)
	}
	if observed < predicted/4 || observed > predicted*4 {
		t.Errorf("calibration: predicted %.3fs vs observed %.3fs (want within 4x)", predicted, observed)
	}
}

// TestOverloadReasonsCrossWire checks both refined overload sentinels
// survive the rpc error-code registry: the device side distinguishes
// deadline-infeasible (shed now) from capacity (fall back locally), and
// both still classify as the ErrOverloaded family.
func TestOverloadReasonsCrossWire(t *testing.T) {
	RegisterMessages()
	for _, tc := range []struct {
		name     string
		sentinel error
		other    error
	}{
		{"deadline", ErrDeadlineInfeasible, ErrOverloadCapacity},
		{"capacity", ErrOverloadCapacity, ErrDeadlineInfeasible},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := rpc.ServeMeta("127.0.0.1:0", func(ctx context.Context, _ rpc.Meta, body any) (any, error) {
				return nil, tc.sentinel
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
			_, err = c.Call(context.Background(), HeartbeatReq{DeviceID: "x"})
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("remote %v does not classify as the %s reason", err, tc.name)
			}
			if errors.Is(err, tc.other) {
				t.Errorf("remote %v classifies as BOTH overload reasons", err)
			}
			if !errors.Is(err, ErrOverloaded) {
				t.Errorf("remote %v lost the ErrOverloaded family", err)
			}
		})
	}
}

// TestDeviceShedsDeadlineInfeasibleTasks drives a device with a tight task
// deadline against an edge so slow that deadline admission refuses every
// first block. The refusals must surface as deadline misses — shed now —
// not as local fallbacks: re-running a deadline-doomed task on the slower
// device CPU would only burn cycles past the deadline.
func TestDeviceShedsDeadlineInfeasibleTasks(t *testing.T) {
	edge, err := StartEdge(EdgeConfig{
		Addr:  "127.0.0.1:0",
		FLOPS: 2e7, // block 1 alone needs 10 model-seconds
		Model: testModel(),
		Policy: ControlPolicy{
			DeadlineAdmission: true,
		},
		TimeScale: testScale,
	})
	if err != nil {
		t.Fatalf("StartEdge: %v", err)
	}
	defer edge.Close()

	cfg := testDeviceConfig(edge.Addr(), "deadliner")
	eOnly := offload.EdgeOnly()
	cfg.Policy = &eOnly // insist on offloading so admission must decide
	cfg.TaskDeadlineSec = 5
	cfg.Slots = 20
	stats, err := RunDevice(cfg)
	if err != nil {
		t.Fatalf("RunDevice: %v", err)
	}
	if stats.DeadlineMisses == 0 {
		t.Error("deadline admission never shed; test configuration too lenient")
	}
	if stats.Fallbacks != 0 {
		t.Errorf("deadline-infeasible misclassified as backpressure: %d fallbacks", stats.Fallbacks)
	}
	if stats.Degraded != 0 {
		t.Errorf("deadline-infeasible misclassified as unreachability: %d degraded", stats.Degraded)
	}
	if stats.Completed != stats.Generated {
		t.Errorf("conservation: completed %d != generated %d", stats.Completed, stats.Generated)
	}
}

// quotedWait is the calibrated queueing-wait estimate (model seconds) that
// deadline admission would quote a job arriving at e now.
func quotedWait(e *Executor) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.q.Quote()
}
