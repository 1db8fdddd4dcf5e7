package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestReservoirBoundsMemoryAndKeepsExactMoments(t *testing.T) {
	const capacity = 2048
	const n = 100000
	r := newReservoir(capacity, 1)
	exact := &Summary{}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < n; i++ {
		v := rng.Float64()
		r.Add(v)
		exact.Add(v)
	}
	if len(r.values) != capacity {
		t.Errorf("sample size %d, want pinned at capacity %d", len(r.values), capacity)
	}
	if r.Count() != n {
		t.Errorf("count %d, want %d (all observations)", r.Count(), n)
	}
	if r.Mean() != exact.Mean() {
		t.Errorf("reservoir mean %v != exact mean %v", r.Mean(), exact.Mean())
	}
	if r.Max() != exact.Max() {
		t.Errorf("reservoir max %v != exact max %v", r.Max(), exact.Max())
	}
}

// TestReservoirPercentileErrorBounds pins the estimation quality: with a
// 2048-sample reservoir over uniform observations, each percentile estimate
// must land within a few standard errors (sqrt(p(1-p)/capacity) quantile
// units for the uniform density) of the exact order statistic.
func TestReservoirPercentileErrorBounds(t *testing.T) {
	const capacity = 2048
	const n = 100000
	r := newReservoir(capacity, 7)
	exact := &Summary{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		v := rng.Float64()
		r.Add(v)
		exact.Add(v)
	}
	for _, p := range []float64{10, 50, 90, 95, 99} {
		q := p / 100
		tol := 4 * math.Sqrt(q*(1-q)/capacity)
		got, want := r.Percentile(p), exact.Percentile(p)
		if math.Abs(got-want) > tol {
			t.Errorf("p%v: reservoir %v vs exact %v exceeds tolerance %v", p, got, want, tol)
		}
	}
}

func TestReservoirBelowCapacityMatchesExact(t *testing.T) {
	r := newReservoir(100, 5)
	exact := &Summary{}
	for _, v := range []float64{5, 1, 4, 2, 3} {
		r.Add(v)
		exact.Add(v)
	}
	for _, p := range []float64{0, 25, 50, 75, 100} {
		if r.Percentile(p) != exact.Percentile(p) {
			t.Errorf("p%v: %v != %v before capacity is reached", p, r.Percentile(p), exact.Percentile(p))
		}
	}
	if r.Stddev() != exact.Stddev() {
		t.Errorf("stddev %v != %v before capacity is reached", r.Stddev(), exact.Stddev())
	}
}
