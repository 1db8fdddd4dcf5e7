package sim

import (
	"container/heap"
	"fmt"

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

// station is a single-server FIFO resource (a CPU or a network link). Work
// submitted while the server is busy queues implicitly: the server's
// busy-until horizon advances by each job's duration in submission order,
// which is exact for FIFO single-server queues.
type station struct {
	name      string
	busyUntil float64
	inFlight  int
	busyTotal float64 // accumulated service seconds
	served    int     // completed jobs

	batch  control.Batch   // window batching; zero value = exact FIFO
	open   *openBatch      // in-progress batch window, nil when closed
	window *control.Window // adaptive window on the engine clock, nil = static
	winMax int             // adaptive batch size cap
}

// newStation names a station for diagnostics.
func newStation(name string) *station { return &station{name: name} }

// QueueLen returns the number of jobs submitted but not yet finished
// (including the one in service).
func (s *station) QueueLen() int { return s.inFlight }

// Backlog returns how many seconds of already-accepted work remain at time t:
// the busy horizon ahead of t plus every job parked in an open batch window
// at its unamortized duration, as the runtime executor counts accepted but
// unfinished work.
func (s *station) Backlog(t float64) float64 {
	var backlog float64
	if s.busyUntil > t {
		backlog = s.busyUntil - t
	}
	if s.open != nil {
		backlog += float64(len(s.open.jobs)) * s.open.dur
	}
	return backlog
}

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
	if dur < 0 {
		dur = 0
	}
	if s.window != nil {
		s.window.ObserveArrival(e.Now())
	}
	if s.batch.Enabled() || s.window != nil {
		s.submitBatched(e, dur, extraDelay, done)
		return
	}
	s.submitPlain(e, dur, extraDelay, done)
}

// submitPlain is the exact single-server FIFO path: the busy horizon
// advances by the job's duration in submission order.
func (s *station) submitPlain(e *engine, dur, extraDelay float64, done func(enqueued, started, finish float64)) {
	enq := e.Now()
	start := enq
	if s.busyUntil > start {
		start = s.busyUntil
	}
	finish := start + dur
	s.busyUntil = finish
	s.inFlight++
	s.busyTotal += dur
	e.At(finish+extraDelay, func() {
		s.inFlight--
		s.served++
		if s.window != nil {
			s.window.ObserveLatency(finish - enq)
		}
		if done != nil {
			done(enq, start, finish+extraDelay)
		}
	})
}
