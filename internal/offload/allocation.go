package offload

import (
	"fmt"
	"math"
)

// Allocate divides the edge server's compute between devices: it returns the
// resource-allocation vector p with sum(p) = 1, minimizing the system-wide
// mean task inference time f(P) (eq. 26) via the KKT closed form of eq. 27:
//
//	p_i = sqrt(k_i) * (sum_j F_j^d + F^e) / (F^e * sum_j sqrt(k_j)) - F_i^d / F^e
//
// The raw closed form can go negative for devices whose own capability
// already exceeds their fair share; those devices are pinned to a minimal
// share and the KKT form is re-solved over the remaining set (standard
// active-set projection), preserving sum(p) = 1.
func Allocate(devices []Device, edgeFLOPS float64) ([]float64, error) {
	n := len(devices)
	if n == 0 {
		return nil, fmt.Errorf("offload: no devices to allocate for")
	}
	if edgeFLOPS <= 0 {
		return nil, fmt.Errorf("offload: edge FLOPS %v must be positive", edgeFLOPS)
	}
	for i, d := range devices {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("device %d: %w", i, err)
		}
	}

	// minShare keeps every device addressable at the edge even when the KKT
	// solution would starve it (its second-block traffic still needs cycles).
	const minShare = 1e-4

	p := make([]float64, n)
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	remaining := 1.0
	for round := 0; round < n; round++ {
		var sumSqrtK, sumFd float64
		activeCount := 0
		for i, d := range devices {
			if !active[i] {
				continue
			}
			sumSqrtK += math.Sqrt(math.Max(d.ArrivalMean, 1e-12))
			sumFd += d.FLOPS
			activeCount++
		}
		if activeCount == 0 {
			break
		}
		if sumSqrtK == 0 {
			// No demand anywhere: split the remainder evenly.
			for i := range devices {
				if active[i] {
					p[i] = remaining / float64(activeCount)
				}
			}
			break
		}
		// KKT closed form over the active set, with the remaining budget.
		scale := (sumFd + remaining*edgeFLOPS) / (remaining * edgeFLOPS)
		anyNegative := false
		for i, d := range devices {
			if !active[i] {
				continue
			}
			raw := math.Sqrt(math.Max(d.ArrivalMean, 1e-12))/sumSqrtK*scale - d.FLOPS/(remaining*edgeFLOPS)
			p[i] = raw * remaining
			if p[i] < minShare {
				anyNegative = true
			}
		}
		if !anyNegative {
			break
		}
		// Pin the starved devices and re-solve for the rest.
		for i := range devices {
			if active[i] && p[i] < minShare {
				p[i] = minShare
				active[i] = false
				remaining -= minShare
			}
		}
		if remaining <= 0 {
			return nil, fmt.Errorf("offload: %d devices exhaust the edge with minimal shares", n)
		}
	}

	// Normalize away floating-point drift.
	var sum float64
	for _, v := range p {
		sum += v
	}
	if sum <= 0 {
		return nil, fmt.Errorf("offload: allocation degenerated (sum %v)", sum)
	}
	for i := range p {
		p[i] /= sum
	}
	return p, nil
}

// meanInferenceTime evaluates f(P) (eq. 26): the demand-weighted mean
// per-task processing time when device i works at F_i^d + p_i F^e.
func meanInferenceTime(devices []Device, edgeFLOPS float64, p []float64, m ModelParams) (float64, error) {
	if len(p) != len(devices) {
		return 0, fmt.Errorf("offload: allocation has %d entries for %d devices", len(p), len(devices))
	}
	work := m.Mu[0] + (1-m.Sigma[0])*m.Mu[1]
	var totalK, sum float64
	for i, d := range devices {
		totalK += d.ArrivalMean
		sum += d.ArrivalMean * work / (d.FLOPS + p[i]*edgeFLOPS)
	}
	if totalK == 0 {
		return 0, nil
	}
	return sum / totalK, nil
}
