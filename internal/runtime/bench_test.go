package runtime

import (
	"sync/atomic"
	"testing"
)

// Executor benchmarks measure queue-machinery overhead, not burn time:
// zero-FLOPs jobs skip the sleep, so ns/op is enqueue + dispatch + wakeup.

// BenchmarkExecutorDo measures the single-submitter fast path.
func BenchmarkExecutorDo(b *testing.B) {
	e, err := NewExecutor(1e9, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Do(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorDoParallelSameClass measures contended submission where
// every goroutine shares one FLOPs class: all submitters and the server
// meet on the executor's one mutex.
func BenchmarkExecutorDoParallelSameClass(b *testing.B) {
	e, err := NewExecutor(1e9, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := e.Do(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExecutorDoParallelMultiClass measures contended submission
// across four FLOPs classes — each goroutine sticks to one class; the
// classes share one queue and its mutex, so the cost should match the
// same-class case.
func BenchmarkExecutorDoParallelMultiClass(b *testing.B) {
	e, err := NewExecutor(1e9, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	classes := [4]float64{1e-12, 2e-12, 3e-12, 4e-12} // distinct, burn rounds to 0
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		flops := classes[int(next.Add(1))%len(classes)]
		for pb.Next() {
			if err := e.Do(flops); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExecutorAdmissionReject measures the cost of a rejection: the
// overload path must be cheap precisely when the system is overloaded.
func BenchmarkExecutorAdmissionReject(b *testing.B) {
	e, err := NewExecutor(1, 1, WithPolicy(ControlPolicy{MaxBacklogSec: 0.001}))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Do(1e9); err == nil {
			b.Fatal("expected rejection")
		}
	}
}
