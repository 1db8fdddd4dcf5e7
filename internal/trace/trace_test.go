package trace

import (
	"math"
	"testing"
)

func empiricalMean(p Process, n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(p.Next())
	}
	return sum / float64(n)
}

func TestConstant(t *testing.T) {
	c := &Constant{PerSlot: 7}
	for i := 0; i < 10; i++ {
		if got := c.Next(); got != 7 {
			t.Fatalf("Next() = %d, want 7", got)
		}
	}
	if c.Mean() != 7 {
		t.Errorf("Mean() = %v, want 7", c.Mean())
	}
}

func TestPoissonMeanConverges(t *testing.T) {
	for _, rate := range []float64{0.5, 5, 20, 80} {
		p, err := NewPoisson(rate, 42)
		if err != nil {
			t.Fatalf("NewPoisson(%v): %v", rate, err)
		}
		got := empiricalMean(p, 20000)
		if math.Abs(got-rate) > 0.06*rate+0.1 {
			t.Errorf("rate %v: empirical mean %v too far off", rate, got)
		}
		if p.Mean() != rate {
			t.Errorf("Mean() = %v, want %v", p.Mean(), rate)
		}
	}
}

func TestPoissonRejectsNegativeRate(t *testing.T) {
	if _, err := NewPoisson(-1, 1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestPoissonDeterministicPerSeed(t *testing.T) {
	a, _ := NewPoisson(10, 7)
	b, _ := NewPoisson(10, 7)
	for i := 0; i < 100; i++ {
		if av, bv := a.Next(), b.Next(); av != bv {
			t.Fatalf("step %d: %d != %d for identical seeds", i, av, bv)
		}
	}
}

func TestBurstyStationaryMean(t *testing.T) {
	b, err := NewBursty(5, 50, 0.05, 0.2, 3)
	if err != nil {
		t.Fatalf("NewBursty: %v", err)
	}
	want := b.Mean()
	got := empiricalMean(b, 50000)
	if math.Abs(got-want) > 0.1*want {
		t.Errorf("empirical mean %v, stationary mean %v", got, want)
	}
}

func TestBurstyBurstsAreBurstier(t *testing.T) {
	b, _ := NewBursty(2, 80, 0.02, 0.1, 9)
	over := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if b.Next() > 40 {
			over++
		}
	}
	if over == 0 {
		t.Error("no burst slots observed")
	}
	// A pure Poisson(2) would essentially never exceed 40.
	if frac := float64(over) / n; frac < 0.01 {
		t.Errorf("burst fraction %v implausibly small", frac)
	}
}

func TestBurstyValidation(t *testing.T) {
	cases := []struct{ calm, burst, pb, pc float64 }{
		{-1, 5, 0.1, 0.1},
		{10, 5, 0.1, 0.1},
		{1, 5, 1.5, 0.1},
		{1, 5, 0.1, 0},
	}
	for i, c := range cases {
		if _, err := NewBursty(c.calm, c.burst, c.pb, c.pc, 1); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPiecewiseFollowsSchedule(t *testing.T) {
	p, err := NewPiecewise([]Phase{{Slots: 100, Rate: 5}, {Slots: 100, Rate: 50}}, 17)
	if err != nil {
		t.Fatalf("NewPiecewise: %v", err)
	}
	var first, second float64
	for i := 0; i < 100; i++ {
		if p.currentRate() != 5 {
			t.Fatalf("slot %d: in wrong phase (rate %v)", i, p.currentRate())
		}
		first += float64(p.Next())
	}
	for i := 0; i < 100; i++ {
		if p.currentRate() != 50 {
			t.Fatalf("slot %d of phase 2: wrong phase (rate %v)", i, p.currentRate())
		}
		second += float64(p.Next())
	}
	if second <= first*3 {
		t.Errorf("phase-2 arrivals (%v) should dwarf phase-1 (%v)", second, first)
	}
	if want := (100*5 + 100*50) / 200.0; p.Mean() != want {
		t.Errorf("Mean() = %v, want %v", p.Mean(), want)
	}
}

func TestPiecewiseCycles(t *testing.T) {
	p, _ := NewPiecewise([]Phase{{Slots: 3, Rate: 1}, {Slots: 2, Rate: 9}}, 5)
	for i := 0; i < 5; i++ {
		p.Next()
	}
	if p.currentRate() != 1 {
		t.Errorf("after a full cycle the process should be back in phase 1, got rate %v", p.currentRate())
	}
}

func TestPiecewiseValidation(t *testing.T) {
	if _, err := NewPiecewise(nil, 1); err == nil {
		t.Error("empty phases accepted")
	}
	if _, err := NewPiecewise([]Phase{{Slots: 0, Rate: 1}}, 1); err == nil {
		t.Error("zero-length phase accepted")
	}
	if _, err := NewPiecewise([]Phase{{Slots: 5, Rate: -2}}, 1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestDiurnalCycle(t *testing.T) {
	d, err := NewDiurnal(20, 0.8, 100, 9)
	if err != nil {
		t.Fatalf("NewDiurnal: %v", err)
	}
	// Quarter-cycle (peak) rate must exceed three-quarter-cycle (trough).
	var peakRate, troughRate float64
	for i := 0; i < 100; i++ {
		r := d.currentRate()
		if i == 25 {
			peakRate = r
		}
		if i == 75 {
			troughRate = r
		}
		d.Next()
	}
	if peakRate <= troughRate {
		t.Errorf("peak rate %v not above trough %v", peakRate, troughRate)
	}
	if got := d.Mean(); got != 20 {
		t.Errorf("Mean() = %v", got)
	}
	// Long-run empirical mean converges to the configured mean.
	d2, _ := NewDiurnal(20, 0.8, 100, 9)
	if got := empiricalMean(d2, 40000); math.Abs(got-20) > 1 {
		t.Errorf("empirical mean %v far from 20", got)
	}
}

func TestDiurnalValidation(t *testing.T) {
	if _, err := NewDiurnal(-1, 0.5, 10, 1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewDiurnal(5, 1.5, 10, 1); err == nil {
		t.Error("amplitude > 1 accepted")
	}
	if _, err := NewDiurnal(5, 0.5, 1, 1); err == nil {
		t.Error("degenerate period accepted")
	}
}
