package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"leime/internal/control"
)

// ErrExecutorClosed is returned by Do/DoTimed/DoTimedCtx on a closed
// executor.
var ErrExecutorClosed = errors.New("runtime: executor closed")

// ExecOption configures optional Executor behaviour at construction; see
// WithPolicy in policy.go.
type ExecOption func(*Executor)

// Executor models one compute resource (a device CPU, a per-device edge
// share, the cloud GPU) as a single-server queue: jobs burn wall-clock time
// proportional to their FLOPs at the executor's current rate. The rate can
// change at runtime (re-allocation when devices join), affecting jobs that
// start after the change — the behaviour of a Docker CPU-quota update.
//
// The queue itself is a control.Queue on the executor's model clock (model
// seconds since construction), guarded by one mutex: it decides admission,
// service order and batching exactly as it does for the simulator's
// stations. The executor adds the wall clock: a dispatcher goroutine asks
// the queue for work whenever the server is free and burns each batch
// from the start the queue names to that start plus its amortized service
// (a sleep to that absolute instant, its last spinBelow spun), a CAS claim
// word lets a submitter cancel a job still waiting, and Close drains what
// was accepted. Service is paced: a burn that wakes late delays only its
// own batch's result, and the next batch still starts at the modelled
// finish, so sleep overshoot does not pile up in the queue. Without
// batching, a submitter that finds the executor idle with nothing queued
// is handed its own job and burns it on its own goroutine: the job arrived
// at an empty queue, so FIFO and EDF order are unchanged and the
// dispatcher hop is skipped.
//
// All capacity behaviour is configured through WithPolicy (ControlPolicy),
// off by default: batching coalesces same-FLOPs jobs into amortized
// batches (statically sized or driven by an adaptive control.Window);
// admission bounds the backlog (ErrOverloadCapacity) and, with deadline
// admission, rejects work whose predicted wait plus service cannot fit its
// context deadline (ErrDeadlineInfeasible); EDF replaces the FIFO queue
// order with earliest-deadline-first.
type Executor struct {
	rateBits uint64 // atomic float64 bits: effective FLOPS
	scale    Scale
	start    time.Time // construction instant: origin of the model clock

	// batch is the queue's resolved batch configuration; inline is set
	// when it does not batch, so an idle executor may serve in place.
	batch  control.Batch
	inline bool

	mu      sync.Mutex
	q       *control.Queue[*job] // guarded by mu
	pending int                  // guarded by mu: accepted, unfinished jobs
	closed  bool                 // guarded by mu
	free    time.Time            // guarded by mu: the last burn's modelled end

	// burn holds the server from start until end; a test wraps it to watch
	// the schedule or to wake late.
	burn func(start, end time.Time)

	// ready wakes the dispatcher (capacity 1: one token is enough, the
	// dispatcher asks the queue afresh on every wake); timer wakes it when
	// a held batch window closes.
	ready chan struct{}
	timer *time.Timer

	wg sync.WaitGroup
}

type job struct {
	flops float64
	enq   time.Time
	// cancel is the job's claim word: 0 queued, 1 cancelled by the
	// submitter (the server discards it unburned), 2 claimed by the server
	// (the burn runs to completion). Whoever wins the CAS from 0 decides.
	cancel int32
	// wait and service are written by the server before done is closed;
	// closing the channel publishes them to the submitter. A job served
	// inline by its submitter has no done channel.
	wait    time.Duration
	service time.Duration
	done    chan struct{}
}

// NewExecutor starts an executor at the given FLOPS rating. Close releases
// its worker. Options (WithPolicy) enable batching, admission control, EDF
// ordering and degradation.
func NewExecutor(rateFLOPS float64, scale Scale, opts ...ExecOption) (*Executor, error) {
	if rateFLOPS <= 0 {
		return nil, fmt.Errorf("runtime: executor FLOPS %v must be positive", rateFLOPS)
	}
	e := &Executor{ready: make(chan struct{}, 1), burn: burnUntil}
	e.scale = scale
	e.start = time.Now()
	e.free = e.start
	atomic.StoreUint64(&e.rateBits, math.Float64bits(rateFLOPS))
	for _, opt := range opts {
		opt(e)
	}
	if e.q == nil {
		e.q = control.NewQueue[*job](ControlPolicy{}, rateFLOPS)
	}
	e.batch = e.q.Policy().Batch
	e.inline = e.batch.MaxSize <= 1
	e.timer = time.AfterFunc(time.Hour, e.wake)
	e.timer.Stop()
	e.wg.Add(1)
	go e.dispatcher()
	return e, nil
}

// wake hands the dispatcher a token; a token already pending covers this
// wake too.
func (e *Executor) wake() {
	select {
	case e.ready <- struct{}{}:
	default:
	}
}

// modelSec places a wall-clock instant on the executor's model clock.
func (e *Executor) modelSec(t time.Time) float64 {
	return e.scale.ModelSeconds(t.Sub(e.start))
}

// wallAt places a model-clock instant on the wall clock.
func (e *Executor) wallAt(sec float64) time.Time {
	return e.start.Add(e.scale.Seconds(sec))
}

// next asks the queue, under mu, for a batch at the wall instant now and
// places the batch's start on the wall clock: clamped into [the later of
// its latest arrival and the last burn's end, now], against rounding
// between the two clocks.
func (e *Executor) next(now time.Time, modelNow float64) (batch []*job, start float64, at time.Time, wakeAt float64) {
	batch, start, wakeAt = e.q.Next(modelNow)
	if len(batch) == 0 {
		return nil, 0, time.Time{}, wakeAt
	}
	at = e.wallAt(start)
	lo := e.free
	for _, j := range batch {
		if j.enq.After(lo) {
			lo = j.enq
		}
	}
	if at.Before(lo) {
		at = lo
	}
	if at.After(now) {
		at = now
	}
	return batch, start, at, wakeAt
}

// rate returns the current FLOPS rating.
func (e *Executor) rate() float64 {
	return math.Float64frombits(atomic.LoadUint64(&e.rateBits))
}

// setRate updates the FLOPS rating for subsequently started jobs.
func (e *Executor) setRate(rateFLOPS float64) error {
	if rateFLOPS <= 0 {
		return fmt.Errorf("runtime: executor FLOPS %v must be positive", rateFLOPS)
	}
	e.mu.Lock()
	atomic.StoreUint64(&e.rateBits, math.Float64bits(rateFLOPS))
	e.q.SetRate(rateFLOPS)
	e.mu.Unlock()
	return nil
}

// Pending returns the number of accepted-but-unfinished jobs (queue plus the
// batch in service).
func (e *Executor) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pending
}

// BacklogSeconds returns how many seconds of accepted-but-unfinished work
// sit at the executor at its current rate, the batch in service counted at
// its full unamortized FLOPs until it finishes — the quantity
// ControlPolicy.MaxBacklogSec budgets against.
func (e *Executor) BacklogSeconds() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.q.Backlog() / e.rate()
}

// Do enqueues a job of the given FLOPs and blocks until it completes. It
// returns an error if the executor is closed.
func (e *Executor) Do(flops float64) error {
	_, _, err := e.DoTimed(flops)
	return err
}

// DoTimed is Do, additionally reporting how long the job waited in the
// queue before service began and how long service took — the split
// telemetry needs to attribute task latency to queueing vs compute.
func (e *Executor) DoTimed(flops float64) (wait, service time.Duration, err error) {
	return e.DoTimedCtx(context.Background(), flops)
}

// DoTimedCtx is DoTimed bounded by a context: a job still waiting in the
// queue when the context ends or its deadline passes is abandoned unburned
// (the deadline-shed path of the edge and cloud), returning the context's
// error or context.DeadlineExceeded. The deadline is read as a value and
// enforced here, so it holds for a context whose Done never fires at it,
// such as an rpc handler's; only a job that waits for the dispatcher arms a
// timer for it. A job already in service runs to completion — the compute
// is spent either way, so the result might as well be delivered.
//
// Admission control (ControlPolicy) runs before the job queues: a backlog
// budget rejects work with ErrOverloadCapacity, and deadline admission
// rejects work whose predicted wait plus service cannot fit the context
// deadline with ErrDeadlineInfeasible. Both unwrap to ErrOverloaded.
//
// An admitted job on an unbatched executor that finds nothing else
// accepted is burned on the caller's goroutine; every other job waits for
// the dispatcher.
func (e *Executor) DoTimedCtx(ctx context.Context, flops float64) (wait, service time.Duration, err error) {
	if flops < 0 {
		flops = 0
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	j := &job{flops: flops}
	qj := control.Job{Cost: flops}
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		qj.Deadline = e.modelSec(deadline)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, 0, ErrExecutorClosed
	}
	// The clock is read under the lock, so the queue sees arrivals in
	// time order: the adaptive window takes a gap between arrivals as
	// its rate sample.
	j.enq = time.Now()
	if hasDeadline && !j.enq.Before(deadline) {
		// The deadline may be a plain value with no timer behind it (an
		// rpc handler's context), so ctx.Err cannot be relied on to say so.
		e.mu.Unlock()
		return 0, 0, context.DeadlineExceeded
	}
	now := e.modelSec(j.enq)
	v := e.q.Admit(now, qj, j)
	switch {
	case v.Infeasible:
		e.mu.Unlock()
		return 0, 0, fmt.Errorf("%w (needs %.3gs, deadline in %v)", ErrDeadlineInfeasible, v.WaitSec+flops/e.rate(), time.Until(deadline))
	case v.OverBudget:
		e.mu.Unlock()
		return 0, 0, fmt.Errorf("%w (backlog %.3gs over budget %.3gs)", ErrOverloadCapacity, v.BacklogSec, e.q.Policy().MaxBacklogSec)
	}
	e.pending++
	if e.inline && e.pending == 1 {
		// The server is idle and nothing waits ahead of this job: the queue
		// hands it straight back, so serve it here. Registering in wg
		// before releasing mu keeps it inside Close's drain.
		batch, start, at, _ := e.next(j.enq, now)
		e.wg.Add(1)
		e.mu.Unlock()
		if e.serve(batch, start, at) {
			// Work queued behind this burn needs the dispatcher.
			e.wake()
		}
		e.wg.Done()
		return j.wait, j.service, nil
	}
	j.done = make(chan struct{})
	e.mu.Unlock()
	e.wake()
	// Only a job that waits arms a timer to its deadline: the context's
	// Done need not fire at the deadline (see DoTimedCtx's doc).
	var expired <-chan time.Time
	if hasDeadline {
		t := time.NewTimer(deadline.Sub(j.enq))
		defer t.Stop()
		expired = t.C
	}
	var cause error
	select {
	case <-j.done:
		return j.wait, j.service, nil
	case <-ctx.Done():
		cause = ctx.Err()
	case <-expired:
		cause = context.DeadlineExceeded
	}
	if atomic.CompareAndSwapInt32(&j.cancel, 0, 1) {
		// Won the claim: the server will discard the job unburned.
		return 0, 0, cause
	}
	// The server claimed it first; the burn finishes regardless.
	<-j.done
	return j.wait, j.service, nil
}

// dispatcher is the executor's server loop: ask the queue for a batch,
// burn it, repeat. With nothing to serve it sleeps until a submission, a
// finished inline burn, the close of a held batch window, or Close wakes
// it. A submitter burning inline holds the queue's server, so one batch
// burns at a time.
func (e *Executor) dispatcher() {
	defer e.wg.Done()
	wakeAt := math.Inf(1)
	for {
		e.mu.Lock()
		now := time.Now()
		modelNow := e.modelSec(now)
		if !math.IsInf(wakeAt, 1) && !now.Before(e.wallAt(wakeAt)) {
			// The timer fired at the held window's close on the wall
			// clock: converted back, now may round below the close, and
			// the queue would hold the window again.
			modelNow = math.Max(modelNow, wakeAt)
		}
		batch, start, at, closes := e.next(now, modelNow)
		wakeAt = closes
		if len(batch) > 0 {
			e.mu.Unlock()
			e.serve(batch, start, at)
			continue
		}
		if e.closed && e.pending == 0 {
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
		if !math.IsInf(wakeAt, 1) {
			e.timer.Reset(time.Until(e.wallAt(wakeAt)))
		}
		<-e.ready
	}
}

// spinBelow is how far short of a burn's end burnUntil stops sleeping:
// about what parking and waking a goroutine costs, so a service shorter
// than that is spun whole instead of slept.
const spinBelow = time.Microsecond

// burnUntil holds the server until end: it sleeps to spinBelow short of
// end and spins the rest. A burn that starts late ends early.
func burnUntil(_, end time.Time) {
	if d := time.Until(end) - spinBelow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(end) {
	}
}

// serve burns one batch the queue handed out at the model instant start,
// at on the wall clock: it claims each job against its submitter's cancel
// and burns the survivors' one amortized service from at. Each survivor
// is told the wait from its arrival to at and the service from at to the
// burn's return, so service is never under the modelled one; the queue is
// told the batch is done at its modelled end, however late the burn
// returned. A batch of one degenerates exactly to the unbatched single-job
// burn. It reports whether accepted work remains or the executor closed —
// the dispatcher's cue after an inline burn.
func (e *Executor) serve(batch []*job, start float64, at time.Time) bool {
	var head *job
	live := 0
	for _, j := range batch {
		if atomic.CompareAndSwapInt32(&j.cancel, 0, 2) {
			if head == nil {
				head = j
			}
			live++
		}
	}
	finish, end := start, at
	if live > 0 {
		sec := e.batch.Amortized(head.flops, live) / e.rate()
		finish, end = start+sec, at.Add(e.scale.Seconds(sec))
		e.burn(at, end)
	}
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range batch {
		if claimed(j) {
			j.wait = at.Sub(j.enq)
			j.service = now.Sub(at)
		}
		if j.done != nil { // nil for a job served inline
			close(j.done)
		}
	}
	e.pending -= len(batch)
	e.free = end
	// The modelled end, but never past the clock, so no later Next is
	// asked at an instant before the server came free.
	e.q.Done(math.Min(finish, e.modelSec(now)), claimed)
	return e.pending > 0 || e.closed
}

// claimed reports whether the server won a job's claim word: a job its
// submitter cancelled was discarded unburned.
func claimed(j *job) bool { return atomic.LoadInt32(&j.cancel) == 2 }

// Close drains queued jobs and stops the dispatcher. Do calls issued after
// Close fail; calls already queued still complete.
func (e *Executor) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.wake()
	e.wg.Wait()
	e.timer.Stop()
}
