// Package dataset generates synthetic CIFAR-10-like workloads. The original
// system runs image recognition on CIFAR-10; latency experiments consume the
// dataset only through (a) each task's input byte size and (b) how hard each
// sample is to classify, which drives early-exit behaviour. This package
// therefore models a dataset as a distribution of per-sample difficulties in
// [0, 1] (0 = trivially easy, 1 = needs the full network).
//
// The paper's motivation experiments (§II-B2, Fig. 3(b)) synthesize datasets
// of different complexity "reflected by the exit rate of First-exit"; the
// Mixture type reproduces that knob.
package dataset

import (
	"fmt"
	"math/rand"
)

// Sample is one inference task input.
type Sample struct {
	// ID is the sample's index within its dataset.
	ID int
	// Difficulty in [0, 1]: the fraction of network depth the sample needs
	// before a confident prediction is possible.
	Difficulty float64
	// Label is the ground-truth class in [0, numClasses).
	Label int
}

// numClasses is the label cardinality (CIFAR-10).
const numClasses = 10

// Mixture parameterizes a three-component difficulty distribution: a share
// of easy samples (difficulty near EasyMode), a share of hard samples (near
// HardMode), and the remainder spread in between. Increasing EasyFrac raises
// the First-exit exit rate, which is exactly the complexity knob of the
// paper's Fig. 3(b).
type Mixture struct {
	// EasyFrac is the fraction of easy samples in [0, 1].
	EasyFrac float64
	// HardFrac is the fraction of hard samples in [0, 1-EasyFrac].
	HardFrac float64
	// EasyMode and HardMode are the difficulty centers of the two extreme
	// components.
	EasyMode float64
	// HardMode is the difficulty center of the hard component.
	HardMode float64
	// Spread is the half-width of each component's difficulty band.
	Spread float64
}

// validate reports whether the mixture is a usable distribution.
func (m Mixture) validate() error {
	if m.EasyFrac < 0 || m.HardFrac < 0 || m.EasyFrac+m.HardFrac > 1 {
		return fmt.Errorf("dataset: fractions (easy=%v, hard=%v) must be non-negative and sum to at most 1", m.EasyFrac, m.HardFrac)
	}
	if m.Spread < 0 || m.Spread > 0.5 {
		return fmt.Errorf("dataset: spread %v out of range [0, 0.5]", m.Spread)
	}
	for _, mode := range []float64{m.EasyMode, m.HardMode} {
		if mode < 0 || mode > 1 {
			return fmt.Errorf("dataset: mode %v out of range [0, 1]", mode)
		}
	}
	return nil
}

// CIFAR10Like is the default mixture, calibrated so a mid-depth First exit
// sees roughly the exit rates reported for CIFAR-10 multi-exit networks
// (a majority of samples are easy).
var CIFAR10Like = Mixture{
	EasyFrac: 0.55,
	HardFrac: 0.15,
	EasyMode: 0.15,
	HardMode: 0.9,
	Spread:   0.12,
}

// WithEasyFrac returns a copy of the mixture with the easy-sample share
// replaced (the complexity knob of Fig. 3(b)).
func (m Mixture) WithEasyFrac(f float64) Mixture {
	out := m
	out.EasyFrac = f
	if out.EasyFrac+out.HardFrac > 1 {
		out.HardFrac = 1 - out.EasyFrac
	}
	return out
}

// Dataset is an ordered collection of samples drawn from one mixture.
type Dataset struct {
	// Samples are the generated samples, in generation order.
	Samples []Sample
	// Mix records the generating mixture.
	Mix Mixture
}

// Generate draws n samples from the mixture, deterministically for a given
// seed.
func Generate(mix Mixture, n int, seed int64) (*Dataset, error) {
	if err := mix.validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("dataset: sample count %d must be positive", n)
	}
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{Samples: make([]Sample, n), Mix: mix}
	for i := range ds.Samples {
		ds.Samples[i] = Sample{
			ID:         i,
			Difficulty: mix.draw(rng),
			Label:      rng.Intn(numClasses),
		}
	}
	return ds, nil
}

// draw samples one difficulty value.
func (m Mixture) draw(rng *rand.Rand) float64 {
	u := rng.Float64()
	var center float64
	switch {
	case u < m.EasyFrac:
		center = m.EasyMode
	case u < m.EasyFrac+m.HardFrac:
		center = m.HardMode
	default:
		// Middle band between the two modes.
		span := m.HardMode - m.EasyMode
		center = m.EasyMode + span*rng.Float64()
	}
	d := center + m.Spread*(2*rng.Float64()-1)
	return clamp01(d)
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

func clamp01(v float64) float64 { return min(max(v, 0), 1) }
