package sim

import (
	"container/heap"
	"fmt"
	"math"

	"leime/internal/control"
)

// engine is a minimal discrete-event engine: a time-ordered heap of
// callbacks. Ties break in scheduling order so runs are deterministic.
type engine struct {
	now    float64
	seq    int
	events eventHeap
}

// Now returns the current simulation time in seconds.
func (e *engine) Now() float64 { return e.now }

// At schedules fn to run at absolute time t (clamped to now for past times).
func (e *engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

// reserve takes the next tie-break sequence number without scheduling
// anything: an event scheduled later with it (atSeq) ties with other
// events at its time as if it had been scheduled now.
func (e *engine) reserve() int {
	e.seq++
	return e.seq
}

// atSeq schedules fn at absolute time t (clamped to now) under a reserved
// sequence number.
func (e *engine) atSeq(t float64, seq int, fn func()) {
	if t < e.now {
		t = e.now
	}
	heap.Push(&e.events, &event{at: t, seq: seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (e *engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// Run executes events until the queue is empty, advancing the clock. It
// returns the number of events processed. maxEvents guards against runaway
// feedback loops; Run returns an error if it is exceeded.
func (e *engine) Run(maxEvents int) (int, error) {
	processed := 0
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*event)
		e.now = ev.at
		ev.fn()
		processed++
		if processed > maxEvents {
			return processed, fmt.Errorf("sim: event budget %d exceeded; likely unstable feedback", maxEvents)
		}
	}
	return processed, nil
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled beyond t remain queued.
func (e *engine) RunUntil(t float64) {
	for e.events.Len() > 0 && e.events[0].at <= t {
		ev := heap.Pop(&e.events).(*event)
		e.now = ev.at
		ev.fn()
	}
	if e.now < t {
		e.now = t
	}
}

type event struct {
	at  float64
	seq int
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// station is a single-server resource (a CPU or a network link) driven by
// one control.Queue on the engine clock: a submission is admitted to the
// queue, and whenever the server is free the station asks the queue for
// its next batch, burns its amortized service and reports it done. With
// the zero policy that is the exact single-server FIFO queue.
type station struct {
	name      string
	q         *control.Queue[*stationJob]
	wakeAt    float64 // time of the pending window wake event
	inFlight  int
	busyTotal float64 // accumulated service seconds
	served    int     // completed jobs
}

// stationJob is one submission waiting at or served by a station.
type stationJob struct {
	dur, enq, extraDelay float64
	// seq is the engine sequence number reserved at submission: the job's
	// completion ties with other events at its time in submission order.
	seq  int
	done func(enqueued, started, finish float64)
}

// newStation names a station for diagnostics; it runs the zero policy.
func newStation(name string) *station {
	s := &station{name: name}
	s.setPolicy(control.Policy{})
	return s
}

// setPolicy replaces the station's queue with one running the policy.
// Must be called before any submissions.
func (s *station) setPolicy(p control.Policy) {
	s.q = control.NewQueue[*stationJob](p, 1)
}

// QueueLen returns the number of jobs submitted but not yet finished
// (including the one in service).
func (s *station) QueueLen() int { return s.inFlight }

// Backlog returns how many seconds of accepted, unfinished work sit at the
// station: every waiting job and the batch in service, each at its full
// unamortized duration until it finishes — the runtime executor's rule
// (Executor.BacklogSeconds), by which the live edge admits and reports its
// backlog.
func (s *station) Backlog() float64 { return s.q.Backlog() }

// Name returns the station's diagnostic name.
func (s *station) Name() string { return s.name }

// Utilization returns the fraction of the horizon the station spent serving.
func (s *station) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	u := s.busyTotal / horizon
	if u > 1 {
		u = 1
	}
	return u
}

// Submit enqueues a job of the given duration at the engine's current time
// and invokes done with the job's finish time when it completes. extraDelay
// is appended after service without occupying the server (propagation
// latency on links).
func (s *station) Submit(e *engine, dur, extraDelay float64, done func(finish float64)) {
	s.SubmitObserved(e, dur, extraDelay, func(_, _, finish float64) {
		if done != nil {
			done(finish)
		}
	})
}

// SubmitObserved is Submit, additionally reporting when the job was enqueued
// and when service began — the queue-wait/service split that telemetry spans
// attribute latency with. finish includes extraDelay.
func (s *station) SubmitObserved(e *engine, dur, extraDelay float64, done func(enqueued, started, finish float64)) {
	s.offer(e, control.Job{Cost: dur}, extraDelay, done)
}

// offer submits a job whose Cost is its service seconds under the
// station's admission policy and reports the queue's verdict; a refused
// job is dropped and done never runs.
func (s *station) offer(e *engine, j control.Job, extraDelay float64, done func(enqueued, started, finish float64)) control.Verdict {
	if j.Cost < 0 {
		j.Cost = 0
	}
	v := s.q.Admit(e.Now(), j, &stationJob{dur: j.Cost, enq: e.Now(), extraDelay: extraDelay, seq: e.reserve(), done: done})
	if v.Infeasible || v.OverBudget {
		return v
	}
	s.inFlight++
	s.serve(e)
	return v
}

// serve asks the queue for work while the server is free: a batch burns
// one amortized service and finishes together; a held window schedules a
// wake at its close.
func (s *station) serve(e *engine) {
	batch, start, wakeAt := s.q.Next(e.Now())
	if len(batch) == 0 {
		if !math.IsInf(wakeAt, 1) && wakeAt != s.wakeAt {
			s.wakeAt = wakeAt
			e.At(wakeAt, func() {
				if s.wakeAt == wakeAt {
					s.serve(e)
				}
			})
		}
		return
	}
	jobs := append([]*stationJob(nil), batch...)
	service := s.q.Policy().Batch.Amortized(jobs[0].dur, len(jobs))
	finish := start + service
	s.busyTotal += service
	e.atSeq(finish, jobs[0].seq, func() {
		s.q.Done(finish, nil)
		s.serve(e)
		for _, j := range jobs {
			if j.extraDelay == 0 {
				s.complete(j, start, finish)
				continue
			}
			e.atSeq(finish+j.extraDelay, j.seq, func() { s.complete(j, start, finish) })
		}
	})
}

// complete hands one served job its observation.
func (s *station) complete(j *stationJob, start, finish float64) {
	s.inFlight--
	s.served++
	if j.done != nil {
		j.done(j.enq, start, finish+j.extraDelay)
	}
}
