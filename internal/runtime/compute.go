package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
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
// share, the cloud GPU) as a single-server FIFO queue: jobs burn wall-clock
// time proportional to their FLOPs at the executor's current rate. The rate
// can change at runtime (re-allocation when devices join), affecting jobs
// that start after the change — the behaviour of a Docker CPU-quota update.
//
// Internally the queue is sharded by FLOPs class (one shard per distinct
// per-job cost — in ME-DNN terms, per DNN block): submitters of different
// classes enqueue and cancel against their own shard's lock and never
// contend with each other. One server token (serving) preserves the
// single-server semantics: whoever burns holds it, so one burn runs at a
// time. A dispatcher goroutine serves queued work, taking the shard whose
// head job enqueued earliest — with batching disabled that reproduces the
// old global FIFO exactly (jobs run one at a time in arrival order); with
// batching enabled each shard is by construction a same-class run, and an
// open batch window fires early as soon as any other shard holds work, so
// no class stalls behind another's window. Without batching, a submitter
// that finds the token free and nothing queued burns its own job on its
// own goroutine: the job arrived at an empty queue, so FIFO and EDF order
// are unchanged and the dispatcher hop is skipped.
//
// All capacity behaviour is configured through WithPolicy (ControlPolicy),
// off by default: batching coalesces same-FLOPs jobs into amortized
// batches (statically sized or driven by an adaptive control.Window);
// admission bounds the backlog (ErrOverloadCapacity) and, with deadline
// admission, rejects work whose predicted wait plus service cannot fit its
// context deadline (ErrDeadlineInfeasible); EDF replaces the FIFO queue
// order with earliest-deadline-first. The admission budget spans the whole
// executor (the sum of all shard backlogs); its accounting is a lock-free
// atomic so the check costs no cross-shard lock.
type Executor struct {
	rateBits uint64 // atomic float64 bits: effective FLOPS
	scale    Scale
	start    time.Time // construction instant: origin of the window's model clock

	// policy is the resolved control policy; batch, admitSec, edf, window
	// and pred are its unpacked hot-path fields.
	policy   ControlPolicy
	batch    control.Batch
	admitSec float64
	edf      bool
	window   *control.Window    // adaptive batch window, nil when static
	pred     *control.Predictor // wait predictor, nil without deadline admission

	// shardsValue holds an immutable map[float64]*shard swapped
	// copy-on-write under shardsMu; lookups on the enqueue path are
	// lock-free. Shard creation (first job of a new FLOPs class) is the
	// only writer.
	shardsValue atomic.Value
	shardsMu    sync.Mutex

	// closeMu serializes enqueue sections against Close: submitters hold
	// the read side while they check closed and append, so every job
	// admitted before Close is visible to the dispatcher's drain.
	closeMu sync.RWMutex
	closed  atomic.Bool

	// ready wakes the dispatcher (capacity 1: one token is enough, the
	// dispatcher rescans all shards on every wake).
	ready chan struct{}

	// serving is the server token: held by the dispatcher for each batch
	// and by a submitter serving its own job inline.
	serving atomic.Bool

	// collecting names the shard whose batch window the dispatcher is
	// holding open, nil outside a window. Foreign-class enqueues broadcast
	// that shard's cond so the window fires without waiting for its timer.
	collecting atomic.Pointer[shard]

	seq         atomic.Uint64 // global enqueue order, for oldest-head dispatch
	queuedTotal atomic.Int64  // jobs queued across shards, not yet collected
	backlogBits atomic.Uint64 // float64 bits: accepted-but-unfinished FLOPs
	pending     int32         // atomic: accepted but unfinished jobs

	wg sync.WaitGroup
}

// shard is one FLOPs class's private queue. Its mutex is the only lock a
// submitter of that class touches on enqueue and the only one the
// dispatcher holds while collecting from it.
type shard struct {
	flops float64
	mu    sync.Mutex
	cond  *sync.Cond // wakes an open batch window on arrivals and close
	queue []*job
}

type job struct {
	flops float64
	seq   uint64
	enq   time.Time
	// deadline is the task's absolute deadline in UnixNano, 0 when the
	// submitting context carries none; EDF sorts on it.
	deadline int64
	// predSec is the wait the admission predictor quoted (model seconds);
	// the worker feeds the observed wait back against it.
	predSec float64
	// cancel is the job's claim word: 0 queued, 1 cancelled by the
	// submitter (the worker discards it unburned), 2 claimed by the worker
	// (the burn runs to completion). Whoever wins the CAS from 0 decides.
	cancel int32
	// wait and service are written by the worker before done is closed;
	// closing the channel publishes them to the submitter. A job served
	// inline by its submitter has no done channel.
	wait    time.Duration
	service time.Duration
	done    chan struct{}
}

// jobLess orders jobs earliest-deadline-first with arrival order breaking
// ties; jobs without a deadline sort last, so a pure-FIFO workload is
// unaffected by EDF.
func jobLess(a, b *job) bool {
	da, db := a.deadline, b.deadline
	if da == 0 {
		da = math.MaxInt64
	}
	if db == 0 {
		db = math.MaxInt64
	}
	if da != db {
		return da < db
	}
	return a.seq < b.seq
}

// NewExecutor starts an executor at the given FLOPS rating. Close releases
// its worker. Options (WithPolicy) enable batching, admission control, EDF
// ordering and degradation.
func NewExecutor(rateFLOPS float64, scale Scale, opts ...ExecOption) (*Executor, error) {
	if rateFLOPS <= 0 {
		return nil, fmt.Errorf("runtime: executor FLOPS %v must be positive", rateFLOPS)
	}
	e := &Executor{ready: make(chan struct{}, 1)}
	e.scale = scale
	e.start = time.Now()
	atomic.StoreUint64(&e.rateBits, math.Float64bits(rateFLOPS))
	for _, opt := range opts {
		opt(e)
	}
	e.shardsValue.Store(map[float64]*shard{})
	e.wg.Add(1)
	go e.dispatcher()
	return e, nil
}

// shardFor returns the shard owning the FLOPs class, creating it on first
// use (copy-on-write, so the common lookup takes no lock).
func (e *Executor) shardFor(flops float64) *shard {
	if s, ok := e.shardsValue.Load().(map[float64]*shard)[flops]; ok {
		return s
	}
	e.shardsMu.Lock()
	defer e.shardsMu.Unlock()
	cur := e.shardsValue.Load().(map[float64]*shard)
	if s, ok := cur[flops]; ok {
		return s
	}
	next := make(map[float64]*shard, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	s := &shard{flops: flops}
	s.cond = sync.NewCond(&s.mu)
	next[flops] = s
	e.shardsValue.Store(next)
	return s
}

// addBacklog adjusts the executor-wide backlog accounting by delta FLOPs
// (lock-free CAS on the float bits).
func (e *Executor) addBacklog(delta float64) {
	for {
		old := e.backlogBits.Load()
		if e.backlogBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// wake hands the dispatcher a scan token; a token already pending covers
// this wake too.
func (e *Executor) wake() {
	select {
	case e.ready <- struct{}{}:
	default:
	}
}

// Rate returns the current FLOPS rating.
func (e *Executor) Rate() float64 {
	return math.Float64frombits(atomic.LoadUint64(&e.rateBits))
}

// SetRate updates the FLOPS rating for subsequently started jobs.
func (e *Executor) SetRate(rateFLOPS float64) error {
	if rateFLOPS <= 0 {
		return fmt.Errorf("runtime: executor FLOPS %v must be positive", rateFLOPS)
	}
	atomic.StoreUint64(&e.rateBits, math.Float64bits(rateFLOPS))
	return nil
}

// Pending returns the number of accepted-but-unfinished jobs (queue plus the
// one in service).
func (e *Executor) Pending() int { return int(atomic.LoadInt32(&e.pending)) }

// BacklogSeconds returns how many seconds of accepted-but-unfinished work
// sit at the executor (summed over all shards), at its current rate — the
// quantity ControlPolicy.MaxBacklogSec budgets against.
func (e *Executor) BacklogSeconds() float64 {
	return math.Float64frombits(e.backlogBits.Load()) / e.Rate()
}

// Policy returns the resolved control policy the executor runs under.
func (e *Executor) Policy() ControlPolicy { return e.policy }

// WindowDelaySec returns the batch window currently in force in model
// seconds — the adaptive controller's live value, or the static
// configuration. Zero means unbatched service.
func (e *Executor) WindowDelaySec() float64 { return e.batchDelaySec() }

// PredictedWaitSec returns the calibrated queueing-wait estimate (model
// seconds) deadline admission would quote for a job arriving now. Without
// deadline admission it returns the raw backlog.
func (e *Executor) PredictedWaitSec() float64 {
	if e.pred == nil {
		return e.BacklogSeconds()
	}
	return e.pred.Predict(e.BacklogSeconds())
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
// queue when the context ends is abandoned unburned (the deadline-shed path
// of the edge and cloud), returning the context's error. A job already in
// service runs to completion — the compute is spent either way, so the
// result might as well be delivered.
//
// Admission control (ControlPolicy) runs before the job queues: a backlog
// budget rejects work with ErrOverloadCapacity, and deadline admission
// rejects work whose predicted wait plus service cannot fit the context
// deadline with ErrDeadlineInfeasible. Both unwrap to ErrOverloaded.
//
// An admitted job on an unbatched executor that finds nothing queued and
// wins the server token is burned on the caller's goroutine; every other
// job queues for the dispatcher.
func (e *Executor) DoTimedCtx(ctx context.Context, flops float64) (wait, service time.Duration, err error) {
	if flops < 0 {
		flops = 0
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	j := &job{flops: flops, enq: time.Now()}
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		j.deadline = deadline.UnixNano()
	}
	// The read side of closeMu brackets the admit-and-enqueue section:
	// concurrent submitters (any mix of classes) share it freely; Close
	// excludes it, so every job that saw closed == false is fully enqueued
	// before Close proceeds and is drained by the dispatcher.
	e.closeMu.RLock()
	if e.closed.Load() {
		e.closeMu.RUnlock()
		return 0, 0, ErrExecutorClosed
	}
	if e.pred != nil && hasDeadline {
		// Deadline admission: quote the calibrated wait for the current
		// backlog; if wait plus this job's own service cannot fit the
		// deadline, reject now rather than queue work that is already
		// doomed to shed. EDF can serve an urgent job ahead of the backlog,
		// so the quote is conservative for exactly the jobs most at risk.
		rate := e.Rate()
		j.predSec = e.pred.Predict(math.Float64frombits(e.backlogBits.Load()) / rate)
		totalSec := j.predSec + flops/rate
		if time.Now().Add(e.scale.Seconds(totalSec)).After(deadline) {
			e.closeMu.RUnlock()
			return 0, 0, fmt.Errorf("%w (needs %.3gs, deadline in %v)", ErrDeadlineInfeasible, totalSec, time.Until(deadline))
		}
	}
	if e.admitSec > 0 {
		// Admit or reject with one CAS on the executor-wide backlog; no
		// lock is held, so rejection under overload is contention-free.
		for {
			old := e.backlogBits.Load()
			backlog := (math.Float64frombits(old) + flops) / e.Rate()
			if backlog > e.admitSec {
				e.closeMu.RUnlock()
				return 0, 0, fmt.Errorf("%w (backlog %.3gs over budget %.3gs)", ErrOverloadCapacity, backlog, e.admitSec)
			}
			if e.backlogBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+flops)) {
				break
			}
		}
	} else {
		e.addBacklog(flops)
	}
	atomic.AddInt32(&e.pending, 1)
	if e.window != nil {
		e.window.ObserveArrival(e.nowModelSec())
	}
	if e.batch.MaxSize <= 1 && e.window == nil && e.queuedTotal.Load() == 0 && e.serving.CompareAndSwap(false, true) {
		// The server is idle and nothing waits ahead of this job: serve it
		// here. Registering in wg before releasing closeMu keeps it inside
		// Close's drain.
		e.wg.Add(1)
		e.closeMu.RUnlock()
		e.runBatch([]*job{j})
		// Hand the server back; work that queued behind this burn needs
		// the dispatcher.
		e.serving.Store(false)
		if e.queuedTotal.Load() > 0 {
			e.wake()
		}
		e.wg.Done()
		return j.wait, j.service, nil
	}
	j.done = make(chan struct{})
	s := e.shardFor(flops)
	s.mu.Lock()
	j.seq = e.seq.Add(1)
	if e.edf && j.deadline != 0 {
		// Earliest-deadline-first: insert before the first queued job with
		// a later deadline (no-deadline jobs sort last). Jobs with equal
		// deadlines and all no-deadline jobs stay in arrival order, so with
		// no deadlines in play the queue is byte-for-byte the FIFO the
		// shard tests pin.
		idx := sort.Search(len(s.queue), func(i int) bool { return jobLess(j, s.queue[i]) })
		s.queue = append(s.queue, nil)
		copy(s.queue[idx+1:], s.queue[idx:])
		s.queue[idx] = j
	} else {
		s.queue = append(s.queue, j)
	}
	collecting := e.collecting.Load()
	if collecting == s {
		// The dispatcher holds this shard's batch window open; a same-class
		// arrival may join the batch.
		s.cond.Signal()
	}
	s.mu.Unlock()
	e.queuedTotal.Add(1)
	e.closeMu.RUnlock()
	if collecting != nil && collecting != s {
		// A foreign class's window is open: wake it so it fires early
		// rather than holding this job behind its delay bound.
		collecting.mu.Lock()
		collecting.cond.Broadcast()
		collecting.mu.Unlock()
	}
	e.wake()
	select {
	case <-j.done:
		return j.wait, j.service, nil
	case <-ctx.Done():
		if atomic.CompareAndSwapInt32(&j.cancel, 0, 1) {
			// Won the claim: the worker will discard the job unburned.
			return 0, 0, ctx.Err()
		}
		// The worker claimed it first; the burn finishes regardless.
		<-j.done
		return j.wait, j.service, nil
	}
}

// dispatcher is the executor's queue server loop: scan the shards, take
// the server token, serve the shard whose head enqueued first, repeat. A
// submitter burning inline holds the token; the dispatcher then waits for
// the wake that submitter sends when it hands the token back. One batch
// burns at a time, so sharding and inline service change contention,
// never the service discipline.
func (e *Executor) dispatcher() {
	defer e.wg.Done()
	for {
		s := e.oldestHead()
		if s == nil {
			if e.closed.Load() && e.queuedTotal.Load() == 0 {
				return
			}
			<-e.ready
			continue
		}
		if !e.serving.CompareAndSwap(false, true) {
			<-e.ready
			continue
		}
		e.runBatch(e.collect(s))
		e.serving.Store(false)
	}
}

// oldestHead returns the shard whose head job serves next — smallest
// enqueue sequence, or earliest deadline under EDF (each shard's queue is
// already deadline-sorted, so comparing heads compares the globally most
// urgent job of each class) — nil when every shard is empty. Scanning locks
// each shard only for the head peek.
func (e *Executor) oldestHead() *shard {
	var best *shard
	var bestHead *job
	for _, s := range e.shardsValue.Load().(map[float64]*shard) {
		s.mu.Lock()
		if len(s.queue) > 0 {
			head := s.queue[0]
			better := best == nil
			if !better {
				if e.edf {
					better = jobLess(head, bestHead)
				} else {
					better = head.seq < bestHead.seq
				}
			}
			if better {
				best, bestHead = s, head
			}
		}
		s.mu.Unlock()
	}
	return best
}

// batchDelaySec returns the window to hold the next batch open for, in
// model seconds: the adaptive controller's current value when one is
// installed, the static configuration otherwise, 0 when batching is off.
func (e *Executor) batchDelaySec() float64 {
	if e.window != nil {
		return e.window.DelaySec()
	}
	if !e.batch.Enabled() {
		return 0
	}
	return e.batch.MaxDelaySec
}

// nowModelSec is the executor's model clock: model seconds elapsed since
// construction, the timestamp stream the adaptive window consumes.
func (e *Executor) nowModelSec() float64 {
	return e.scale.ModelSeconds(time.Since(e.start))
}

// collect takes the next batch from shard s. Without batching it pops one
// job (global FIFO by oldest-head dispatch). With batching it holds the
// window open for co-arriving same-class work — every job in a shard is
// the same class, so the batch is simply the queue prefix — and fires
// early when the window fills, the executor closes, or another class
// enqueues anywhere (the cross-shard analogue of the old "a foreign job
// behind the head caps the batch" rule: no class waits out another's
// window).
func (e *Executor) collect(s *shard) []*job {
	delaySec := e.batchDelaySec()
	s.mu.Lock()
	if e.batch.MaxSize <= 1 || delaySec <= 0 {
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		e.queuedTotal.Add(-1)
		return []*job{j}
	}
	deadline := time.Now().Add(e.scale.Seconds(delaySec))
	e.collecting.Store(s)
	// sync.Cond has no timed wait; an AfterFunc broadcast bounds the hold.
	timer := time.AfterFunc(time.Until(deadline), func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	for {
		n := len(s.queue)
		if n > e.batch.MaxSize {
			n = e.batch.MaxSize
		}
		// queuedTotal counts this shard's queue plus every other shard's;
		// any excess over our length is foreign work that must not stall
		// behind our window.
		foreign := e.queuedTotal.Load() > int64(len(s.queue))
		if n >= e.batch.MaxSize || foreign || e.closed.Load() || !time.Now().Before(deadline) {
			e.collecting.Store(nil)
			batch := append([]*job(nil), s.queue[:n]...)
			s.queue = s.queue[n:]
			s.mu.Unlock()
			e.queuedTotal.Add(int64(-n))
			return batch
		}
		s.cond.Wait()
	}
}

// runBatch claims the batch's jobs, burns one amortized service for the
// survivors and publishes identical service observations to each. A batch
// of one degenerates exactly to the unbatched single-job burn.
func (e *Executor) runBatch(batch []*job) {
	live := make([]*job, 0, len(batch))
	var discarded []*job
	for _, j := range batch {
		if atomic.CompareAndSwapInt32(&j.cancel, 0, 2) {
			live = append(live, j)
		} else {
			// Cancelled while queued: drop it without burning compute.
			discarded = append(discarded, j)
		}
	}
	var start time.Time
	var service time.Duration
	if len(live) > 0 {
		start = time.Now()
		for _, j := range live {
			j.wait = start.Sub(j.enq)
		}
		flops := e.batch.Amortized(live[0].flops, len(live))
		if d := e.scale.Seconds(flops / e.Rate()); d > 0 {
			time.Sleep(d)
		}
		service = time.Since(start)
		if e.pred != nil || e.window != nil {
			serviceSec := e.scale.ModelSeconds(service)
			for _, j := range live {
				waitSec := e.scale.ModelSeconds(j.wait)
				if e.pred != nil {
					e.pred.Observe(j.predSec, waitSec)
				}
				if e.window != nil {
					e.window.ObserveLatency(waitSec + serviceSec)
				}
			}
		}
	}
	for _, j := range batch {
		e.addBacklog(-j.flops)
	}
	for _, j := range discarded {
		atomic.AddInt32(&e.pending, -1)
		close(j.done)
	}
	for _, j := range live {
		j.service = service
		atomic.AddInt32(&e.pending, -1)
		if j.done != nil { // nil for a job served inline
			close(j.done)
		}
	}
}

// Close drains queued jobs and stops the dispatcher. Do calls issued after
// Close fail; calls already queued still complete.
func (e *Executor) Close() {
	e.closeMu.Lock()
	if e.closed.Load() {
		e.closeMu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed.Store(true)
	e.closeMu.Unlock()
	// Wake an open batch window and the dispatcher's idle wait.
	for _, s := range e.shardsValue.Load().(map[float64]*shard) {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	e.wake()
	e.wg.Wait()
}
