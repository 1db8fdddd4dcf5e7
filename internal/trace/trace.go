// Package trace generates task-arrival processes for the simulator and the
// testbed runtime: constant rate, Poisson, bursty (Markov-modulated), and
// piecewise-dynamic traces like the arrival-rate churn of the paper's
// stability experiment (Fig. 9).
package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Process yields the number of task arrivals in each successive time slot.
type Process interface {
	// Next returns the arrivals for the next slot.
	Next() int
	// Mean returns the long-run expected arrivals per slot (k_i).
	Mean() float64
}

// Constant is a deterministic arrival process: the same count every slot.
type Constant struct {
	// PerSlot is the arrival count per slot.
	PerSlot int
}

// Next returns PerSlot.
func (c *Constant) Next() int { return c.PerSlot }

// Mean returns PerSlot.
func (c *Constant) Mean() float64 { return float64(c.PerSlot) }

// Poisson is an i.i.d. Poisson arrival process.
type Poisson struct {
	rate float64
	rng  *rand.Rand
}

// NewPoisson builds a Poisson process with the given per-slot rate.
func NewPoisson(rate float64, seed int64) (*Poisson, error) {
	if rate < 0 {
		return nil, fmt.Errorf("trace: Poisson rate %v must be non-negative", rate)
	}
	return &Poisson{rate: rate, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next draws one Poisson variate (Knuth's method for small rates, normal
// approximation above 30 to stay O(1)).
func (p *Poisson) Next() int { return poissonDraw(p.rng, p.rate) }

// Mean returns the configured rate.
func (p *Poisson) Mean() float64 { return p.rate }

func poissonDraw(rng *rand.Rand, rate float64) int {
	if rate <= 0 {
		return 0
	}
	if rate > 30 {
		v := rate + math.Sqrt(rate)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-rate)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bursty is a two-state Markov-modulated Poisson process: a calm state with
// a low rate and a burst state with a high rate, with geometric dwell times.
type Bursty struct {
	// CalmRate and BurstRate are the per-slot Poisson rates of the two states.
	CalmRate, BurstRate float64
	// BurstProb is the per-slot probability of entering a burst from calm;
	// CalmProb the probability of leaving a burst.
	BurstProb, CalmProb float64

	rng      *rand.Rand
	bursting bool
}

// NewBursty builds a bursty process.
func NewBursty(calmRate, burstRate, burstProb, calmProb float64, seed int64) (*Bursty, error) {
	if calmRate < 0 || burstRate < calmRate {
		return nil, fmt.Errorf("trace: need 0 <= calmRate (%v) <= burstRate (%v)", calmRate, burstRate)
	}
	if burstProb < 0 || burstProb > 1 || calmProb <= 0 || calmProb > 1 {
		return nil, fmt.Errorf("trace: transition probabilities (%v, %v) out of range", burstProb, calmProb)
	}
	return &Bursty{
		CalmRate: calmRate, BurstRate: burstRate,
		BurstProb: burstProb, CalmProb: calmProb,
		rng: rand.New(rand.NewSource(seed)),
	}, nil
}

// Next advances the modulating chain and draws arrivals for the slot.
func (b *Bursty) Next() int {
	if b.bursting {
		if b.rng.Float64() < b.CalmProb {
			b.bursting = false
		}
	} else if b.rng.Float64() < b.BurstProb {
		b.bursting = true
	}
	rate := b.CalmRate
	if b.bursting {
		rate = b.BurstRate
	}
	return poissonDraw(b.rng, rate)
}

// Mean returns the stationary mean rate of the modulated process.
func (b *Bursty) Mean() float64 {
	if b.BurstProb == 0 {
		return b.CalmRate
	}
	// Stationary distribution of the two-state chain.
	pBurst := b.BurstProb / (b.BurstProb + b.CalmProb)
	return (1-pBurst)*b.CalmRate + pBurst*b.BurstRate
}

// Phase is one segment of a piecewise trace.
type Phase struct {
	// Slots is the segment length.
	Slots int
	// Rate is the Poisson rate during the segment.
	Rate float64
}

// Piecewise replays a sequence of rate phases, cycling when exhausted. It is
// the dynamic-arrival-rate trace of the paper's stability experiment.
type Piecewise struct {
	phases []Phase
	rng    *rand.Rand
	idx    int
	used   int
}

// NewPiecewise builds a piecewise process from the given phases.
func NewPiecewise(phases []Phase, seed int64) (*Piecewise, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("trace: piecewise process needs at least one phase")
	}
	for i, ph := range phases {
		if ph.Slots <= 0 || ph.Rate < 0 {
			return nil, fmt.Errorf("trace: phase %d invalid (%d slots, rate %v)", i, ph.Slots, ph.Rate)
		}
	}
	out := make([]Phase, len(phases))
	copy(out, phases)
	return &Piecewise{phases: out, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next draws arrivals for the current phase and advances the schedule.
func (p *Piecewise) Next() int {
	ph := p.phases[p.idx]
	v := poissonDraw(p.rng, ph.Rate)
	p.used++
	if p.used >= ph.Slots {
		p.used = 0
		p.idx = (p.idx + 1) % len(p.phases)
	}
	return v
}

// Mean returns the slot-weighted mean rate over one full cycle.
func (p *Piecewise) Mean() float64 {
	var slots int
	var weighted float64
	for _, ph := range p.phases {
		slots += ph.Slots
		weighted += float64(ph.Slots) * ph.Rate
	}
	return weighted / float64(slots)
}

// currentRate returns the rate of the phase the process is currently in.
func (p *Piecewise) currentRate() float64 { return p.phases[p.idx].Rate }

// Diurnal modulates a Poisson process sinusoidally around a mean rate —
// the day/night load cycle of a deployed edge application.
type Diurnal struct {
	// MeanRate is the average per-slot rate.
	MeanRate float64
	// Amplitude in [0, 1] scales the swing: rate(t) varies in
	// [Mean*(1-A), Mean*(1+A)].
	Amplitude float64
	// PeriodSlots is the cycle length.
	PeriodSlots int

	rng  *rand.Rand
	slot int
}

// NewDiurnal builds a sinusoidally modulated Poisson process.
func NewDiurnal(meanRate, amplitude float64, periodSlots int, seed int64) (*Diurnal, error) {
	if meanRate < 0 {
		return nil, fmt.Errorf("trace: diurnal mean rate %v must be non-negative", meanRate)
	}
	if amplitude < 0 || amplitude > 1 {
		return nil, fmt.Errorf("trace: diurnal amplitude %v out of [0, 1]", amplitude)
	}
	if periodSlots <= 1 {
		return nil, fmt.Errorf("trace: diurnal period %d must exceed 1 slot", periodSlots)
	}
	return &Diurnal{
		MeanRate: meanRate, Amplitude: amplitude, PeriodSlots: periodSlots,
		rng: rand.New(rand.NewSource(seed)),
	}, nil
}

// currentRate returns the instantaneous rate at the process's position.
func (d *Diurnal) currentRate() float64 {
	phase := 2 * math.Pi * float64(d.slot%d.PeriodSlots) / float64(d.PeriodSlots)
	return d.MeanRate * (1 + d.Amplitude*math.Sin(phase))
}

// Next draws arrivals at the cycle's current rate and advances the phase.
func (d *Diurnal) Next() int {
	v := poissonDraw(d.rng, d.currentRate())
	d.slot++
	return v
}

// Mean returns the cycle-average rate.
func (d *Diurnal) Mean() float64 { return d.MeanRate }

// Compile-time interface checks.
var (
	_ Process = (*Constant)(nil)
	_ Process = (*Poisson)(nil)
	_ Process = (*Bursty)(nil)
	_ Process = (*Piecewise)(nil)
	_ Process = (*Diurnal)(nil)
)
