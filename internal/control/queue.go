package control

import (
	"math"
	"sort"
)

// Job is one submission as a Queue sees it.
type Job struct {
	// Cost is the job's work in the queue's unit: FLOPs on the runtime,
	// service seconds in the simulator. Jobs of equal Cost form one batch
	// class (the same DNN block).
	Cost float64
	// Deadline is the job's absolute deadline in seconds on the caller's
	// clock; zero or less means none.
	Deadline float64
}

// Verdict is Admit's answer. The zero value admits the job.
type Verdict struct {
	// Infeasible refuses the job: the quoted wait plus its own service
	// misses its deadline.
	Infeasible bool
	// OverBudget refuses the job: it would push the backlog past
	// Policy.MaxBacklogSec.
	OverBudget bool
	// WaitSec is the wait quoted for the job in seconds: the backlog ahead
	// of it, calibrated by the Predictor under deadline admission.
	WaitSec float64
	// BacklogSec is the backlog in seconds the job would leave, itself
	// included; zero when deadline admission refused it first.
	BacklogSec float64
}

// entry is one admitted job and the caller's value for it.
type entry[T any] struct {
	job     Job
	v       T
	arrival float64 // Admit's now
	// quote is the WaitSec a deadline job was admitted on, fed back to
	// the predictor; zero for a job without a deadline.
	quote float64
}

// Queue is one single-server edge queue as a clock-free state machine:
// admission (backlog budget and deadline feasibility), service order (FIFO
// or EDF), same-class batch collection under a static or adaptive window,
// and the feedback that calibrates the Predictor and the Window.
// Every time is in seconds on the caller's clock; the queue reads no clock,
// holds no lock and starts no goroutine, so the wall-clock executor
// (internal/runtime, under its mutex) and the event-driven station
// (internal/sim) drive the same machine. T is the caller's per-job value,
// handed back in batches.
//
// The driver's loop: Admit each arrival; whenever the server is free, call
// Next; burn the batch it returns from its start, then report it with Done
// at the start plus its service. A Next that returns no batch names when
// to ask again (+Inf: on the next arrival or Done). A driver that asks
// late gets the start it would have got on time, so its lateness delays
// only its own batch, not the schedule of the jobs queued behind it.
type Queue[T any] struct {
	policy Policy
	rate   float64
	pred   *Predictor
	window *Window

	waiting []entry[T] // admitted, not yet handed out, in service order
	serving []entry[T] // the batch in service
	out     []T        // Next's result, reused
	busy    bool
	start   float64 // the start of the batch in service
	free    float64 // the last Done's instant: when the server came free
	backlog float64 // Cost of every admitted job not yet Done

	// holding is set while a batch window is held open: holdCost,
	// holdMax and closesAt are its class, size cap and close time, fixed
	// when it opened.
	holding  bool
	holdCost float64
	holdMax  int
	closesAt float64
}

// NewQueue returns an idle queue serving speed work units per second
// under the policy. Adaptive batching fills its zero ceilings with a
// size cap of 8 and a 0.05 s window; Degrade is ignored.
func NewQueue[T any](p Policy, speed float64) *Queue[T] {
	if p.AdaptiveBatch {
		p.Batch = p.Batch.adaptiveCeilings()
	}
	q := &Queue[T]{policy: p, rate: speed, free: math.Inf(-1)}
	if p.AdaptiveBatch {
		q.window = NewWindow(WindowConfig{
			MaxSize:      p.Batch.MaxSize,
			DelayCapSec:  p.Batch.MaxDelaySec,
			TargetP99Sec: p.TargetP99Sec,
		})
	}
	if p.DeadlineAdmission {
		q.pred = NewPredictor(0)
	}
	return q
}

// Policy returns the policy the queue runs, zero ceilings filled.
func (q *Queue[T]) Policy() Policy { return q.policy }

// Window returns the adaptive batch window, nil when batching is static.
func (q *Queue[T]) Window() *Window { return q.window }

// SetRate sets the service speed in work units per second; backlog
// seconds and admission quotes use the new speed from now on.
func (q *Queue[T]) SetRate(speed float64) { q.rate = speed }

// Backlog returns the work admitted and not yet Done, in work units: the
// waiting jobs and the batch in service, each at its full unamortized Cost.
func (q *Queue[T]) Backlog() float64 { return q.backlog }

// Quote returns the wait in seconds Admit would quote a job arriving now.
func (q *Queue[T]) Quote() float64 {
	if q.pred == nil {
		return q.backlog / q.rate
	}
	return q.pred.Predict(q.backlog / q.rate)
}

// Admit offers a job arriving at now. Deadline admission runs first: the
// quoted wait plus the job's own service must end by its deadline. Then
// the backlog budget: the job must not push the backlog past
// MaxBacklogSec. An admitted job waits for Next; a refused one leaves no
// trace.
func (q *Queue[T]) Admit(now float64, j Job, v T) Verdict {
	if j.Cost < 0 {
		j.Cost = 0
	}
	vd := Verdict{WaitSec: q.Quote()}
	if q.policy.DeadlineAdmission && j.Deadline > 0 && now+vd.WaitSec+j.Cost/q.rate > j.Deadline {
		vd.Infeasible = true
		return vd
	}
	vd.BacklogSec = (q.backlog + j.Cost) / q.rate
	if q.policy.MaxBacklogSec > 0 && vd.BacklogSec > q.policy.MaxBacklogSec {
		vd.OverBudget = true
		return vd
	}
	q.backlog += j.Cost
	if q.window != nil {
		q.window.ObserveArrival(now)
	}
	e := entry[T]{job: j, v: v, arrival: now}
	if j.Deadline > 0 {
		// Only a quote admission judged by calibrates the predictor: under
		// EDF a deadline-free job waits behind every deadline, far past
		// the backlog it was quoted.
		e.quote = vd.WaitSec
	}
	i := len(q.waiting)
	if q.policy.EDF && j.Deadline > 0 {
		// Before the first waiting job with a later deadline; jobs without
		// one sort last, equal deadlines keep arrival order.
		i = sort.Search(len(q.waiting), func(k int) bool {
			d := q.waiting[k].job.Deadline
			return d <= 0 || d > j.Deadline
		})
	}
	q.waiting = append(q.waiting, entry[T]{})
	copy(q.waiting[i+1:], q.waiting[i:])
	q.waiting[i] = e
	return vd
}

// Next hands the server its next batch at now, or names when to ask again.
// It returns no batch while a batch is in service (until Done) or nothing
// waits (wakeAt +Inf). The batch is the head job plus the jobs of its
// class queued behind it, in service order, up to the batch size cap; they
// overtake other classes' jobs between them, which keep their order.
// Unbatched, it is the head alone. Batched, the first Next that finds a
// batch short of the cap with nothing else waiting opens a window for the
// head's class and holds it: it fires when full, when a job of another
// class queues (even one EDF sorts ahead of it), or at wakeAt. The
// returned slice is valid until the next call to Next.
//
// start is when a driver that asked at every arrival, Done and window
// close would have been handed this batch: the later of the last Done and
// the instant the batch became servable (the head's arrival unbatched;
// the window's close, or the arrival that filled it or came from another
// class, batched), never after now. A window a late Next opens closes its
// delay after that instant, and the batch takes only jobs that had
// arrived by it. A driver asking at those instants gets start == now.
func (q *Queue[T]) Next(now float64) (batch []T, start, wakeAt float64) {
	if q.busy || len(q.waiting) == 0 {
		return nil, 0, math.Inf(1)
	}
	// A held window keeps its class even if a more urgent job of another
	// class has since become the head: that arrival fires it rather than
	// restarting the window behind the newcomer.
	head, maxSize, delay := q.holdCost, q.holdMax, 0.0
	if !q.holding {
		head = q.waiting[0].job.Cost
		maxSize, delay = q.limits()
	}
	// first and last are the earliest and latest arrivals of the head's
	// class (its first maxSize jobs), foreign the earliest of another class.
	n, first, last, foreign := 0, math.Inf(1), math.Inf(-1), math.Inf(1)
	for k := 0; k < len(q.waiting) && n < maxSize; k++ {
		e := &q.waiting[k]
		if e.job.Cost != head {
			foreign = math.Min(foreign, e.arrival)
			continue
		}
		n++
		first, last = math.Min(first, e.arrival), math.Max(last, e.arrival)
	}
	closesAt := q.closesAt
	if !q.holding {
		// The window opens when the server, free, first saw the head's
		// class waiting; unbatched, its zero delay makes that the start.
		closesAt = math.Max(q.free, first) + delay
	}
	if n < maxSize && math.IsInf(foreign, 1) && now < closesAt {
		q.holding, q.holdCost, q.holdMax, q.closesAt = true, head, maxSize, closesAt
		return nil, 0, closesAt
	}
	q.holding = false
	// The batch fired at the first of its window's close, another class's
	// arrival and the arrival that filled it, but not before the server was
	// free with the class waiting.
	servable := math.Min(closesAt, foreign)
	if n == maxSize {
		servable = math.Min(servable, last)
	}
	fire := math.Max(math.Max(q.free, first), servable)
	// Move the batch out: the head's class as it stood at fire, in service
	// order; every other job keeps its place in order.
	q.serving = q.serving[:0]
	rest := 0
	for _, e := range q.waiting {
		if len(q.serving) < maxSize && e.job.Cost == head && e.arrival <= fire {
			q.serving = append(q.serving, e)
		} else {
			q.waiting[rest] = e
			rest++
		}
	}
	clear(q.waiting[rest:])
	q.waiting = q.waiting[:rest]
	q.out = q.out[:0]
	for _, e := range q.serving {
		q.out = append(q.out, e.v)
	}
	q.busy, q.start = true, math.Min(fire, now)
	return q.out, q.start, math.Inf(1)
}

// Done reports at now that the batch Next handed out has finished: its
// start plus its service, for a driver that paces its burns. It releases
// the batch's backlog, frees the server from now, and feeds each job
// served — every job when served is nil — to the Predictor (the wait it
// was quoted against the wait from its arrival to the start) and to the
// Window (its latency to now).
func (q *Queue[T]) Done(now float64, served func(T) bool) {
	for _, e := range q.serving {
		q.backlog -= e.job.Cost
		if served != nil && !served(e.v) {
			continue
		}
		if q.pred != nil {
			q.pred.Observe(e.quote, q.start-e.arrival)
		}
		if q.window != nil {
			q.window.ObserveLatency(now - e.arrival)
		}
	}
	if len(q.waiting) == 0 {
		q.backlog = 0 // no rounding residue on an empty queue
	}
	clear(q.serving)
	clear(q.out)
	q.serving, q.out, q.busy, q.free = q.serving[:0], q.out[:0], false, now
}

// limits returns the batch size cap and window in force for a batch opened
// now: the adaptive window's live delay or the static one, and no batching
// (1, 0) when either is off.
func (q *Queue[T]) limits() (maxSize int, delaySec float64) {
	b := q.policy.Batch
	if q.window != nil {
		delaySec = q.window.DelaySec()
	} else if b.Enabled() {
		delaySec = b.MaxDelaySec
	}
	if b.MaxSize <= 1 || delaySec <= 0 {
		return 1, 0
	}
	return b.MaxSize, delaySec
}
