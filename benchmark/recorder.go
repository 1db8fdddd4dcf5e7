package main

import (
	"math"
	"sync/atomic"
	"time"
)

// The recorder keeps what the load loops measure in constant memory. The
// system under test shares this process's heap, and Go paces its collector
// by live heap: a harness that appended one record per task grew the live
// heap by tens of MB over a data-plane run, and collections became several
// times rarer than the same edge would see on its own (dataplane-large ran
// at 5 200 tasks/s with per-task records preallocated and at 1 700 tasks/s
// without). Counters and fixed-size histograms leave the heap as it was.

// histBuckets log-spaced buckets of 1 % width cover 1 ns to over 100 s.
const (
	histBuckets = 2560
	histGrowth  = 1.01
)

var histLogGrowth = math.Log(histGrowth)

// histogram counts durations in log-spaced buckets; safe for concurrent use.
type histogram [histBuckets]atomic.Uint32

func (h *histogram) add(d time.Duration) {
	i := 0
	if d > 1 {
		i = int(math.Log(float64(d)) / histLogGrowth)
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h[i].Add(1)
}

// quantileMS returns the nearest-rank p-th percentile in milliseconds: the
// geometric middle of the bucket that holds that rank (within 0.5 % of the
// exact value), 0 for an empty histogram.
func quantileMS(counts []uint64, p float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range counts {
		if seen += c; seen >= rank {
			return math.Exp((float64(i)+0.5)*histLogGrowth) / float64(time.Millisecond)
		}
	}
	return 0
}

// sliceRecorder accumulates one slice of the measured window.
type sliceRecorder struct {
	latency histogram
	// sumNs is the summed latency of completed tasks, so means are exact.
	sumNs    atomic.Int64
	outcomes [errored + 1]atomic.Int64
	degraded atomic.Int64
	// sched tallies scheduled exits of generated tasks, served the exits
	// that answered completed ones.
	sched, served [3]atomic.Int64
}

// recorder accumulates a whole window, one sliceRecorder per slice.
type recorder [slices]sliceRecorder

// add records one measured task that was due at offset at into a window.
func (r *recorder) add(at, window time.Duration, rec taskRecord) {
	s := &r[sliceOf(at, window)]
	s.outcomes[rec.outcome].Add(1)
	s.sched[rec.sched-1].Add(1)
	if rec.outcome == good || rec.outcome == late {
		s.latency.add(rec.latency)
		s.sumNs.Add(int64(rec.latency))
		s.served[rec.served-1].Add(1)
		if rec.served < rec.sched {
			s.degraded.Add(1)
		}
	}
}

// fold reads the recorder out into the measurement's counters, latency
// summary and per-slice statistics.
func (r *recorder) fold(m *measured) {
	whole := make([]uint64, histBuckets)
	var sumNs int64
	m.perSlice = make([]sliceStat, slices)
	for k := range r {
		s := &r[k]
		counts := make([]uint64, histBuckets)
		for i := range s.latency {
			counts[i] = uint64(s.latency[i].Load())
			whole[i] += counts[i]
		}
		st := &m.perSlice[k]
		st.good = int(s.outcomes[good].Load())
		st.completed = st.good + int(s.outcomes[late].Load())
		if st.completed > 0 {
			st.meanMS = float64(s.sumNs.Load()) / float64(st.completed) / float64(time.Millisecond)
			st.p50MS = quantileMS(counts, 50)
		}
		sumNs += s.sumNs.Load()
		m.good += st.good
		m.completed += st.completed
		m.rejected += int(s.outcomes[rejected].Load())
		m.shed += int(s.outcomes[shed].Load())
		m.errored += int(s.outcomes[errored].Load())
		m.degradedTasks += int(s.degraded.Load())
		for e := range s.sched {
			m.schedExits[e] += int(s.sched[e].Load())
			m.servedExits[e] += int(s.served[e].Load())
		}
	}
	m.generated = m.completed + m.rejected + m.shed + m.errored
	m.tct = tct{Samples: m.completed, P50: quantileMS(whole, 50), P99: quantileMS(whole, 99)}
	if m.completed > 0 {
		m.tct.Mean = float64(sumNs) / float64(m.completed) / float64(time.Millisecond)
	}
}
