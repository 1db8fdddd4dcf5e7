package metrics

import (
	"math"
	"sync"
	"testing"
)

// TestSharedReservoirConcurrentAccuracy hammers one shared reservoir from
// many goroutines and checks that the percentile estimates stay close to
// the true quantiles of the inserted distribution while the exact
// statistics (count, max) stay exact. This is the load-harness usage
// pattern: every in-flight task goroutine records its latency into the same
// reservoir.
func TestSharedReservoirConcurrentAccuracy(t *testing.T) {
	const (
		workers   = 8
		perWorker = 50_000
		capacity  = 4096
	)
	s := NewSharedReservoir(capacity, 42)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Deterministic values uniform on [0, 1): a lattice sweep per
			// worker, offset so workers interleave distinct values.
			for i := 0; i < perWorker; i++ {
				v := (float64(i)*float64(workers) + float64(w)) / float64(workers*perWorker)
				s.Add(v)
			}
		}(w)
	}
	wg.Wait()

	total := workers * perWorker
	if got := s.Count(); got != total {
		t.Fatalf("Count() = %d, want %d", got, total)
	}
	wantMax := (float64(perWorker-1)*float64(workers) + float64(workers-1)) / float64(workers*perWorker)
	if got := s.Max(); got != wantMax {
		t.Errorf("Max() = %v, want %v", got, wantMax)
	}
	if got := s.Mean(); math.Abs(got-0.5) > 1e-3 {
		t.Errorf("Mean() = %v, want ~0.5", got)
	}
	// Reservoir percentiles over a uniform sample of n values have standard
	// error ~sqrt(p(1-p)/n); 5 sigma at n=4096 is under 0.04 for the median.
	for _, want := range []float64{0.50, 0.95, 0.99} {
		if got := s.Percentile(want * 100); math.Abs(got-want) > 0.05 {
			t.Errorf("Percentile(%v) = %v, want within 0.05 of %v", want*100, got, want)
		}
	}
}
