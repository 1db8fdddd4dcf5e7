package sim

import "leime/internal/control"

// A station's batch window is configured by control.Batch, the same value
// that configures the testbed executor's (internal/runtime): up to MaxSize
// jobs of the same service-duration class coalesce into one amortized burn,
// each batch held open at most MaxDelaySec. The zero value disables
// batching, keeping the station an exact single-server FIFO queue.
//
// One modeling difference from the executor is the window anchor: the
// executor opens its window when the batch head reaches the server, while
// the station opens it at the head's arrival (the analytic model has no
// separate "server pulled the job" instant — service start is derived from
// the busy horizon). Under saturation both anchor at effectively the same
// point; when idle the station fires up to MaxDelaySec earlier.

// batchJob is one submission parked in an open batch window.
type batchJob struct {
	enq        float64
	extraDelay float64
	done       func(enqueued, started, finish float64)
}

// openBatch is a station's in-progress batch window. Pointer identity guards
// the deadline timer: a batch fired early (full, or capped by a class change)
// is replaced, so the stale timer finds s.open != itself and does nothing.
type openBatch struct {
	dur  float64 // service-duration class shared by every job in the batch
	jobs []batchJob
}

// SetBatch configures window batching on the station. Must be called before
// any submissions; a disabled configuration leaves behaviour unchanged.
func (s *station) SetBatch(b control.Batch) { s.batch = b }

// SetWindow installs an adaptive batch window (control.Window) driven on the
// engine clock: every submission feeds the controller an arrival, every
// completion a latency, and each batch holds open for the controller's live
// delay instead of a static MaxDelaySec. maxSize caps jobs per burn — the
// ceiling the controller's target fill respects. Must be called before any
// submissions; the amortization cost model is control.Batch's.
func (s *station) SetWindow(w *control.Window, maxSize int) {
	s.window = w
	s.winMax = maxSize
}

// batchLimits returns the batch size cap and hold delay in force for the
// next window: the adaptive controller's live values when one is installed,
// the static configuration otherwise.
func (s *station) batchLimits() (maxSize int, delaySec float64) {
	if s.window != nil {
		return s.winMax, s.window.DelaySec()
	}
	return s.batch.MaxSize, s.batch.MaxDelaySec
}

// submitBatched parks the job in the station's open batch window, firing the
// window when it fills, when a different duration class arrives (preserving
// FIFO: later same-class jobs cannot overtake the blocked head), or when the
// deadline timer expires.
func (s *station) submitBatched(e *engine, dur, extraDelay float64, done func(enqueued, started, finish float64)) {
	maxSize, delay := s.batchLimits()
	if maxSize <= 1 || delay <= 0 {
		// The adaptive window has shut (sparse arrivals): serve unbatched,
		// first firing any batch still open so FIFO order holds.
		s.fireBatch(e)
		s.submitPlain(e, dur, extraDelay, done)
		return
	}
	if s.open != nil && s.open.dur != dur {
		s.fireBatch(e)
	}
	if s.open == nil {
		b := &openBatch{dur: dur}
		s.open = b
		e.After(delay, func() {
			if s.open == b {
				s.fireBatch(e)
			}
		})
	}
	s.inFlight++
	s.open.jobs = append(s.open.jobs, batchJob{enq: e.Now(), extraDelay: extraDelay, done: done})
	if len(s.open.jobs) >= maxSize {
		s.fireBatch(e)
	}
}

// fireBatch closes the open window and schedules its single amortized burn:
// every job in the batch shares one service interval on the busy horizon and
// completes at the same finish time (plus per-job propagation delay).
func (s *station) fireBatch(e *engine) {
	b := s.open
	if b == nil {
		return
	}
	s.open = nil
	amort := s.batch.Amortized(b.dur, len(b.jobs))
	start := e.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	finish := start + amort
	s.busyUntil = finish
	s.busyTotal += amort
	for _, j := range b.jobs {
		j := j
		e.At(finish+j.extraDelay, func() {
			s.inFlight--
			s.served++
			if s.window != nil {
				s.window.ObserveLatency(finish - j.enq)
			}
			if j.done != nil {
				j.done(j.enq, start, finish+j.extraDelay)
			}
		})
	}
}
