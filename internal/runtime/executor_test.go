package runtime

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leime/internal/control"
)

// TestExecutorConcurrentStress hammers one executor from many tenants
// across several FLOPs classes with concurrent submission, cancellation,
// rate changes and stat reads, then closes it mid-flight. Run under -race
// this is the memory-safety proof of the mutex-guarded queue; the
// assertions check conservation: every job resolves exactly one way and
// the accounting drains to zero.
func TestExecutorConcurrentStress(t *testing.T) {
	e, err := NewExecutor(1e9, 0.001, WithPolicy(ControlPolicy{
		MaxBacklogSec: 5,
		Batch:         control.Batch{MaxSize: 4, MaxDelaySec: 0.002},
	}))
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	classes := []float64{1e7, 2e7, 3e7, 4e7}
	const (
		workers    = 8
		jobsPerW   = 25
		cancelFrac = 4 // every 4th job is cancelled while queued
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
				if i%cancelFrac == 0 {
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
	// Concurrent control-plane traffic: rate changes and stat reads.
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
			_ = e.BacklogSeconds()
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
	if got := e.BacklogSeconds(); got < -1e-9 || got > 1e-9 {
		t.Errorf("BacklogSeconds after drain = %v, want 0", got)
	}
}

// waitUntil polls cond until it holds, failing the test if it does not
// within five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestExecutorCloseDrainsAcceptedJobs pins the Close contract: jobs accepted before Close complete normally (no error),
// jobs submitted after Close fail with ErrExecutorClosed, and Close does
// not return until the dispatcher drained everything.
func TestExecutorCloseDrainsAcceptedJobs(t *testing.T) {
	e, err := NewExecutor(1e9, 0.01)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	const queued = 6
	var wg sync.WaitGroup
	errs := make([]error, queued+1)
	// A 100ms head job holds the server on its submitter's goroutine, so
	// the others queue behind it and Close must hand the drain from the
	// inline burn to the dispatcher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errs[queued] = e.DoTimed(1e10)
	}()
	waitUntil(t, "head job in service", func() bool { return e.Pending() == 1 })
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Two classes, so the drain crosses batch classes.
			_, _, errs[i] = e.DoTimed(1e7 * float64(1+i%2))
		}(i)
	}
	waitUntil(t, "all jobs enqueued", func() bool { return e.Pending() == queued+1 })
	e.Close()
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending after Close = %d, want 0 (Close must drain)", got)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("queued job %d: %v (accepted work must complete)", i, err)
		}
	}
	if err := e.Do(1e7); !errors.Is(err, ErrExecutorClosed) {
		t.Errorf("Do after Close = %v, want ErrExecutorClosed", err)
	}
}

// TestExecutorFIFOPinsSingleQueueBehavior pins exact single-FIFO
// semantics when batching is disabled: jobs of mixed classes run one at a
// time in submission order, and the wait/service split attributes time
// the same way (a job's wait is its predecessors' service).
func TestExecutorFIFOPinsSingleQueueBehavior(t *testing.T) {
	e, err := NewExecutor(1e9, 1)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()

	// Mixed classes, submitted with deterministic spacing while the head
	// job occupies the server: completion order must equal submission
	// order whatever the class.
	const perJob = 4e7 // 40ms at 1e9 FLOPS
	classes := []float64{perJob, 2 * perJob, perJob, 2 * perJob, perJob}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i, flops := range classes {
		wg.Add(1)
		go func(i int, flops float64) {
			defer wg.Done()
			wait, service, err := e.DoTimed(flops)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			if i == 0 && wait > 30*time.Millisecond {
				t.Errorf("head job waited %v, want ~0", wait)
			}
			wantService := time.Duration(float64(time.Second) * flops / 1e9)
			if service < wantService || service > wantService+80*time.Millisecond {
				t.Errorf("job %d service = %v, want ≈%v", i, service, wantService)
			}
		}(i, flops)
		// Submit the next job only once this one holds its place: the head
		// in service on its submitter's goroutine, each later job admitted
		// behind it.
		if i == 0 {
			waitUntil(t, "head job in service", func() bool { return e.Pending() == 1 })
		} else {
			waitUntil(t, "job enqueued", func() bool { return e.Pending() == i+1 })
		}
	}
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("completion order %v, want submission order (classes must not reorder the FIFO)", order)
		}
	}

	// Wait/service split: with the server busy on a 40ms head job, the
	// next job's wait is the head's residual service, not its own. The
	// dispatcher may still be finishing the last batch for an instant after
	// the last job above returned; once the executor is empty, the head
	// finds it idle and serves itself.
	waitUntil(t, "idle server", func() bool { return e.Pending() == 0 })
	var headWG sync.WaitGroup
	headWG.Add(1)
	go func() {
		defer headWG.Done()
		if _, _, err := e.DoTimed(perJob); err != nil {
			t.Errorf("head: %v", err)
		}
	}()
	waitUntil(t, "head job in service", func() bool { return e.Pending() == 1 })
	wait, service, err := e.DoTimed(perJob)
	headWG.Wait()
	if err != nil {
		t.Fatalf("queued job: %v", err)
	}
	if wait < 10*time.Millisecond || wait > 100*time.Millisecond {
		t.Errorf("queued job wait = %v, want ≈30ms (head's residual service)", wait)
	}
	if service < 40*time.Millisecond || service > 120*time.Millisecond {
		t.Errorf("queued job service = %v, want ≈40ms", service)
	}
}

// TestExecutorBatchCoalescingPinned pins the batching side: co-arriving
// same-class jobs coalesce into one amortized burn (identical published
// service), and a batch of one degenerates to the lone-job burn.
func TestExecutorBatchCoalescingPinned(t *testing.T) {
	e, err := NewExecutor(1e9, 1, WithPolicy(ControlPolicy{Batch: control.Batch{MaxSize: 4, MaxDelaySec: 0.05}}))
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()

	const perJob = 4e7 // 40ms lone burn
	var wg sync.WaitGroup
	services := make([]time.Duration, 4)
	for i := range services {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, service, err := e.DoTimed(perJob)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
			}
			services[i] = service
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(services); i++ {
		if services[i] != services[0] {
			t.Fatalf("batched services diverge: %v", services)
		}
	}
	// 4 jobs at marginal 0.25 burn 40ms*(1+3*0.25) = 70ms, far under the
	// 160ms serial cost; the shared service must reflect amortization.
	if services[0] >= 160*time.Millisecond {
		t.Errorf("batch service %v shows no amortization", services[0])
	}

	// A lone job after the batch burns its own 40ms.
	_, service, err := e.DoTimed(perJob)
	if err != nil {
		t.Fatalf("lone job: %v", err)
	}
	if service < 40*time.Millisecond || service > 120*time.Millisecond {
		t.Errorf("lone service = %v, want ≈40ms", service)
	}
}

// TestExecutorInlineKeepsOneServer pins the single-server invariant across
// the two ways a job is served: inline on its submitter's goroutine (the
// server was idle and nothing was queued) and by the dispatcher (it
// queued). In each of 25 rounds eight goroutines submit a mixed-class
// ~1ms job at once: the first to arrive finds the executor idle and
// serves itself, the rest queue behind it. Every burn's start and
// modelled end, the schedule the executor reports waits from, is
// recorded: each burn starts no earlier than the one before it ends. A
// dispatcher serving the queue beside the inline burn would start a burn
// inside another. (Reported services may overlap: a paced burn starts at
// its predecessor's modelled end, however late that one woke.)
func TestExecutorInlineKeepsOneServer(t *testing.T) {
	type span struct{ start, end time.Time }
	var (
		mu    sync.Mutex
		burns []span
	)
	e, err := NewExecutor(1e9, 1, func(e *Executor) {
		e.burn = func(start, end time.Time) {
			mu.Lock()
			burns = append(burns, span{start, end})
			mu.Unlock()
			burnUntil(start, end)
		}
	})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()
	const (
		workers = 8
		rounds  = 25
	)
	classes := []float64{1e6, 1.2e6, 0.8e6}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(flops float64) {
				defer wg.Done()
				if _, _, err := e.DoTimed(flops); err != nil {
					t.Errorf("round %d: %v", r, err)
				}
			}(classes[(r+w)%len(classes)])
		}
		wg.Wait()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(burns) != workers*rounds {
		t.Fatalf("%d burns, want %d", len(burns), workers*rounds)
	}
	sort.Slice(burns, func(a, b int) bool { return burns[a].start.Before(burns[b].start) })
	for k := 1; k < len(burns); k++ {
		if prev := burns[k-1]; burns[k].start.Before(prev.end) {
			t.Fatalf("burn %d starts %v before burn %d's modelled end: two burns at once", k, prev.end.Sub(burns[k].start), k-1)
		}
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending after run = %d, want 0", got)
	}
	if got := e.BacklogSeconds(); got < -1e-9 || got > 1e-9 {
		t.Errorf("BacklogSeconds after run = %v, want 0", got)
	}
}

// TestExecutorPacedWaitIgnoresWakeLateness pins paced service: every burn
// here wakes 2 ms after its modelled end, yet the k-th job queued behind
// a head job on an unbatched executor reports a wait of at most the
// modelled service of the jobs ahead of it. The next burn starts at the
// modelled end, so a late wake delays only its own job's result; the
// lateness is the test's, not the host's, so the bound holds on any host.
func TestExecutorPacedWaitIgnoresWakeLateness(t *testing.T) {
	const (
		late   = 2 * time.Millisecond
		headD  = 50 * time.Millisecond
		eachD  = 5 * time.Millisecond
		queued = 5
	)
	e, err := NewExecutor(1e9, 1, func(e *Executor) { // one FLOP is one nanosecond
		e.burn = func(start, end time.Time) { burnUntil(start, end.Add(late)) }
	})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	run := func(d time.Duration, wait *time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, _, err := e.DoTimed(float64(d.Nanoseconds()))
			if err != nil {
				t.Errorf("DoTimed(%v): %v", d, err)
			}
			*wait = w
		}()
	}
	var headWait time.Duration
	waits := make([]time.Duration, queued)
	run(headD, &headWait)
	waitUntil(t, "head accepted", func() bool { return e.Pending() == 1 })
	for k := range waits {
		run(eachD, &waits[k])
		waitUntil(t, "job queued", func() bool { return e.Pending() >= k+2 })
	}
	wg.Wait()
	for k, w := range waits {
		if ahead := headD + time.Duration(k)*eachD; w > ahead {
			t.Errorf("queued job %d waited %v, more than the %v modelled ahead of it", k, w, ahead)
		}
	}
}

// TestExecutorCloseDrainsInlineJob pins Close against a job served on its
// submitter's goroutine: Close returns only after the burn, the job
// completes without error, and the executor is closed afterwards.
func TestExecutorCloseDrainsInlineJob(t *testing.T) {
	e, err := NewExecutor(1e9, 1)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	const burn = 200 * time.Millisecond
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, _, err := e.DoTimed(2e8) // 200ms at 1e9 FLOPS
		done <- err
	}()
	waitUntil(t, "job accepted", func() bool { return e.Pending() == 1 })
	e.Close()
	if elapsed := time.Since(start); elapsed < burn {
		t.Errorf("Close returned after %v, before the %v burn finished", elapsed, burn)
	}
	if err := <-done; err != nil {
		t.Errorf("inline job: %v (accepted work must complete)", err)
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending after Close = %d, want 0", got)
	}
	if err := e.Do(1e7); !errors.Is(err, ErrExecutorClosed) {
		t.Errorf("Do after Close = %v, want ErrExecutorClosed", err)
	}
}

// TestExecutorServiceNeverUnderBurns pins the burn's lower bound on both
// sides of spinBelow and on both serving paths: a job reports a service
// of at least its modelled one whether it is spun (under spinBelow) or
// slept, and whether its submitter serves it inline or the dispatcher
// does. The dispatcher path runs on a batching executor, which never
// serves inline; a batch of one burns exactly the unbatched service.
func TestExecutorServiceNeverUnderBurns(t *testing.T) {
	const rateFLOPS = 1e9 // one FLOP is one nanosecond
	inline, err := NewExecutor(rateFLOPS, 1)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer inline.Close()
	queued, err := NewExecutor(rateFLOPS, 1, WithPolicy(ControlPolicy{Batch: control.Batch{MaxSize: 2, MaxDelaySec: 1e-6}}))
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer queued.Close()
	for _, d := range []time.Duration{spinBelow * 9 / 10, spinBelow / 10, 20 * spinBelow} {
		for _, path := range []struct {
			name string
			e    *Executor
		}{{"inline", inline}, {"dispatcher", queued}} {
			for i := 0; i < 50; i++ {
				wait, service, err := path.e.DoTimed(float64(d.Nanoseconds()))
				if err != nil {
					t.Fatalf("%s %v: %v", path.name, d, err)
				}
				if service < d {
					t.Fatalf("%s %v: service %v under the modelled %v", path.name, d, service, d)
				}
				if path.e == inline && wait != 0 {
					t.Fatalf("%s %v: waited %v, so it was not served inline", path.name, d, wait)
				}
			}
		}
	}
}
