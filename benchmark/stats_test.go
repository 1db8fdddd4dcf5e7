package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {1, 10}, {10, 10}, {11, 20}, {50, 50}, {51, 60}, {99, 100}, {100, 100},
	} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

// The expected quartiles are what Python prints for
// statistics.quantiles(values, n=4), the driver's spread definition.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.values)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread around a zero median = %v, want 0", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for us := 1; us <= 10000; us++ {
		h.add(time.Duration(us) * time.Microsecond)
	}
	counts := make([]uint64, histBuckets)
	for i := range h {
		counts[i] = uint64(h[i].Load())
	}
	for _, c := range []struct{ p, wantMS float64 }{{50, 5}, {99, 9.9}, {100, 10}} {
		got := quantileMS(counts, c.p)
		if math.Abs(got-c.wantMS)/c.wantMS > 0.01 {
			t.Errorf("p%v = %v ms, want %v within 1 %%", c.p, got, c.wantMS)
		}
	}
	if got := quantileMS(make([]uint64, histBuckets), 50); got != 0 {
		t.Errorf("quantile of an empty histogram = %v, want 0", got)
	}
}

func TestRecorderFold(t *testing.T) {
	rec := new(recorder)
	window := 10 * time.Second
	// Slice 0: two good tasks of 2 and 4 ms; slice 9: one late, one rejected.
	rec.add(0, window, taskRecord{latency: 2 * time.Millisecond, sched: 3, served: 3, outcome: good})
	rec.add(time.Second/2, window, taskRecord{latency: 4 * time.Millisecond, sched: 3, served: 2, outcome: good})
	rec.add(window-1, window, taskRecord{latency: 30 * time.Millisecond, sched: 1, served: 1, outcome: late})
	rec.add(window+time.Second, window, taskRecord{sched: 2, outcome: rejected})
	m := &measured{window: window}
	rec.fold(m)
	if m.generated != 4 || m.completed != 3 || m.good != 2 || m.rejected != 1 || m.degradedTasks != 1 {
		t.Errorf("counters: %+v", m)
	}
	if m.schedExits != [3]int{1, 1, 2} || m.servedExits != [3]int{1, 1, 1} {
		t.Errorf("exits: scheduled %v, served %v", m.schedExits, m.servedExits)
	}
	if !near(m.tct.Mean, 12) || !near(m.perSlice[0].meanMS, 3) || m.perSlice[9].completed != 1 || m.perSlice[9].good != 0 {
		t.Errorf("means: whole %v, slice 0 %+v, slice 9 %+v", m.tct.Mean, m.perSlice[0], m.perSlice[9])
	}
}

func TestSteadySlices(t *testing.T) {
	m := &measured{perSlice: make([]sliceStat, 10)}
	m.perSlice[3].lagP99US = 2 * maxGenLagP99US
	if steady, late := m.steadySlices(); len(steady) != 9 || late != 1 {
		t.Errorf("one late slice: %d steady, %d late", len(steady), late)
	}
	for k := 0; k < 6; k++ {
		m.perSlice[k].lagP99US = 2 * maxGenLagP99US
	}
	if steady, late := m.steadySlices(); len(steady) != 10 || late != 6 {
		t.Errorf("six late slices leave no majority: %d steady, %d late", len(steady), late)
	}
}
