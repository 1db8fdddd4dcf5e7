package metrics

import "sync"

// SharedSummary is a Summary safe for concurrent use: a mutex-guarded
// reservoir that many goroutines can feed at once. The open-loop load
// harness records per-task latencies into one from every in-flight task
// goroutine; the lock is held only for the O(1) reservoir insert, so
// high-rate concurrent Adds stay cheap.
type SharedSummary struct {
	mu sync.Mutex
	s  *Summary
}

// NewSharedReservoir returns a concurrency-safe Summary whose memory is
// bounded at capacity observations (Vitter's Algorithm R, as newReservoir).
// capacity <= 0 selects the same default as newReservoir.
func NewSharedReservoir(capacity int, seed int64) *SharedSummary {
	return &SharedSummary{s: newReservoir(capacity, seed)}
}

// Add records one observation.
func (s *SharedSummary) Add(v float64) {
	s.mu.Lock()
	s.s.Add(v)
	s.mu.Unlock()
}

// Count returns the number of observations recorded so far (all of them,
// even those no longer retained by the reservoir).
func (s *SharedSummary) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Count()
}

// Mean returns the arithmetic mean over every observation (0 when empty);
// exact even once the reservoir has wrapped.
func (s *SharedSummary) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Mean()
}

// Max returns the largest observation (0 when empty); exact even in
// reservoir mode.
func (s *SharedSummary) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Max()
}

// Percentile returns the p-th percentile (nearest-rank over the retained
// sample), p in [0, 100].
func (s *SharedSummary) Percentile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Percentile(p)
}
