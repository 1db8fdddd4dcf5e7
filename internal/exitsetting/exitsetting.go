// Package exitsetting implements LEIME's model-level contribution: choosing
// the First, Second and Third exits of a multi-exit DNN so that the expected
// task completion time T(E) (paper eq. 4, problem P0) is minimized for a
// given wild-edge environment.
//
// The package provides the exact cost model (eqs. 1–3), an O(m^2) exhaustive
// solver used as ground truth, the paper's branch-and-bound solver built on
// the Theorem-1 dominance property (O(m ln m) average complexity, Theorem 2),
// and the baseline exit-setting strategies the paper compares against: DDNN,
// Edgent, Neurosurgeon's partition-only scheme, and the min_comp / min_tran /
// mean ablations of Fig. 10(a).
package exitsetting

import (
	"fmt"
	"math"

	"leime/internal/cluster"
	"leime/internal/model"
)

// costs breaks the expected completion time of an exit combination into the
// paper's three stage terms.
type costs struct {
	// Device is t^d (eq. 1): first-block layers plus the First-exit
	// classifier on the device.
	Device float64
	// Edge is t^e (eq. 2): second-block layers plus the Second-exit
	// classifier on the edge, plus device-to-edge transmission of the
	// First-exit intermediate data.
	Edge float64
	// Cloud is t^c (eq. 3): third-block layers plus the Third-exit
	// classifier on the cloud, plus edge-to-cloud transmission.
	Cloud float64
}

// Instance bundles everything the cost model needs: the chain profile, the
// per-exit cumulative exit rates, and the environment.
//
// NewInstance precomputes per-cut transfer times, so together with the
// profile's prefix-sum caches every cost evaluation is O(1); both solvers
// run millions of evaluations when re-solving online. Instances built as
// bare struct literals (and environments mutated after construction) lose
// the tables and fall back to recomputing transfers per evaluation.
type Instance struct {
	Profile *model.Profile
	// Sigma is the cumulative exit-rate vector (len m, monotone, last == 1).
	Sigma []float64
	Env   cluster.Env

	// xferDE[i] / xferEC[i] are the device→edge and edge→cloud transfer
	// times of the tensor at cut i (0..m), hoisted out of the cost model's
	// inner loop by NewInstance.
	xferDE, xferEC []float64
	// Flattened per-exit stage terms (0..m), also built by NewInstance, so
	// the three-exit cost is a handful of table lookups:
	//
	//	Cost(e1, e2) = devT[e1] + (1-Sigma[e1-1])*(edgeA[e2]+edgeB[e1])
	//	             + (1-Sigma[e2-1])*cloudT[e2]
	//
	// devT[i] is the device stage ending at exit i; edgeA[i]+edgeB[j] is
	// the edge stage running from cut j to exit i (classifier included);
	// cloudT[i] is the cloud stage from cut i to the final exit.
	devT, edgeA, edgeB, cloudT []float64
}

// buildTables precomputes the per-cut transfer-time and stage-term tables
// from the current profile and environment.
func (in *Instance) buildTables() {
	p, env := in.Profile, in.Env
	m := p.NumExits()
	in.xferDE = make([]float64, m+1)
	in.xferEC = make([]float64, m+1)
	in.devT = make([]float64, m+1)
	in.edgeA = make([]float64, m+1)
	in.edgeB = make([]float64, m+1)
	in.cloudT = make([]float64, m+1)
	for i := 0; i <= m; i++ {
		b := p.DataBytes(i)
		in.xferDE[i] = env.DeviceEdge.TransferSeconds(b)
		in.xferEC[i] = env.EdgeCloud.TransferSeconds(b)
		cum := p.CumulativeFLOPs(i)
		if i > 0 {
			exit := p.ExitClassifierFLOPs(i)
			in.devT[i] = (cum + exit) / env.DeviceFLOPS
			in.edgeA[i] = (cum + exit) / env.EdgeFLOPS
		}
		in.edgeB[i] = in.xferDE[i] - cum/env.EdgeFLOPS
		in.cloudT[i] = (p.RangeFLOPs(i, m)+p.ExitClassifierFLOPs(m))/env.CloudFLOPS + in.xferEC[i]
	}
}

// deviceEdgeXfer returns the device→edge transfer time of the tensor at
// cut i, from the table when present.
func (in *Instance) deviceEdgeXfer(i int) float64 {
	if len(in.xferDE) > i {
		return in.xferDE[i]
	}
	return in.Env.DeviceEdge.TransferSeconds(in.Profile.DataBytes(i))
}

// edgeCloudXfer is deviceEdgeXfer for the edge→cloud hop.
func (in *Instance) edgeCloudXfer(i int) float64 {
	if len(in.xferEC) > i {
		return in.xferEC[i]
	}
	return in.Env.EdgeCloud.TransferSeconds(in.Profile.DataBytes(i))
}

// NewInstance validates and builds a cost-model instance.
func NewInstance(p *model.Profile, sigma []float64, env cluster.Env) (*Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	m := p.NumExits()
	if len(sigma) != m {
		return nil, fmt.Errorf("exitsetting: sigma has %d entries, want %d", len(sigma), m)
	}
	prev := 0.0
	for i, s := range sigma {
		if s < prev-1e-12 || s < 0 || s > 1 {
			return nil, fmt.Errorf("exitsetting: sigma must be a monotone vector in [0,1]; entry %d is %v after %v", i, s, prev)
		}
		prev = s
	}
	if math.Abs(sigma[m-1]-1) > 1e-9 {
		return nil, fmt.Errorf("exitsetting: sigma_m = %v, want 1", sigma[m-1])
	}
	in := &Instance{Profile: p, Sigma: sigma, Env: env}
	in.buildTables()
	return in, nil
}

// stageCosts returns the three stage terms for the exit combination
// {e1, e2, m} (1-based exits, e1 < e2 < m).
func (in *Instance) stageCosts(e1, e2 int) costs {
	p, env := in.Profile, in.Env
	m := p.NumExits()
	return costs{
		Device: (p.RangeFLOPs(0, e1) + p.ExitClassifierFLOPs(e1)) / env.DeviceFLOPS,
		Edge: (p.RangeFLOPs(e1, e2)+p.ExitClassifierFLOPs(e2))/env.EdgeFLOPS +
			in.deviceEdgeXfer(e1),
		Cloud: (p.RangeFLOPs(e2, m)+p.ExitClassifierFLOPs(m))/env.CloudFLOPS +
			in.edgeCloudXfer(e2),
	}
}

// Cost returns T(E) for the exit combination {e1, e2, m} (eq. 4):
//
//	T(E) = sigma_m (t^d + t^e + t^c) - (sigma_e1 t^e + sigma_e2 t^c)
//
// i.e. every task pays the device stage; tasks that survive the First exit
// pay the edge stage; tasks that survive the Second exit pay the cloud stage.
func (in *Instance) Cost(e1, e2 int) float64 {
	if len(in.devT) > e2 {
		// Flattened form of the stage-cost formula below; equal to it up to
		// floating-point re-association (see the differential test).
		return in.devT[e1] + (1-in.Sigma[e1-1])*(in.edgeA[e2]+in.edgeB[e1]) +
			(1-in.Sigma[e2-1])*in.cloudT[e2]
	}
	c := in.stageCosts(e1, e2)
	s1, s2 := in.Sigma[e1-1], in.Sigma[e2-1]
	return (c.Device + c.Edge + c.Cloud) - (s1*c.Edge + s2*c.Cloud)
}

// costNoExits returns the completion time of a partition-only deployment
// (Neurosurgeon): the chain is cut at the same (e1, e2) positions, but no
// early-exit classifiers exist, so every task traverses all three blocks and
// only the final classifier runs.
func (in *Instance) costNoExits(e1, e2 int) float64 {
	p, env := in.Profile, in.Env
	m := p.NumExits()
	td := p.RangeFLOPs(0, e1) / env.DeviceFLOPS
	te := p.RangeFLOPs(e1, e2)/env.EdgeFLOPS + in.deviceEdgeXfer(e1)
	tc := (p.RangeFLOPs(e2, m)+p.ExitClassifierFLOPs(m))/env.CloudFLOPS + in.edgeCloudXfer(e2)
	return td + te + tc
}

// twoExitCost returns T({exit_i, exit_m, -}) (eq. 5): the cost of a two-exit
// network whose first block runs on the device and the rest on the edge. It
// is the quantity Theorem 1's dominance test compares.
func (in *Instance) twoExitCost(i int) float64 {
	p, env := in.Profile, in.Env
	m := p.NumExits()
	td := (p.RangeFLOPs(0, i) + p.ExitClassifierFLOPs(i)) / env.DeviceFLOPS
	te := (p.RangeFLOPs(i, m)+p.ExitClassifierFLOPs(m))/env.EdgeFLOPS +
		in.deviceEdgeXfer(i)
	return (td + te) - in.Sigma[i-1]*te
}

// Setting is a solved exit combination.
type Setting struct {
	// E1, E2, E3 are the chosen 1-based exits (E3 is always m).
	E1, E2, E3 int
	// Cost is T(E) for the combination.
	Cost float64
	// Evals counts how many cost evaluations (two-exit or three-exit) the
	// solver performed; complexity assertions use it.
	Evals int
}

// Exhaustive scans all (e1, e2) pairs with 1 <= e1 < e2 < m. It is the
// O(m^2) ground truth the branch-and-bound solver is verified against.
func (in *Instance) Exhaustive() Setting {
	m := in.Profile.NumExits()
	best := Setting{E1: -1, Cost: math.Inf(1), E3: m}
	for e1 := 1; e1 < m-1; e1++ {
		for e2 := e1 + 1; e2 < m; e2++ {
			best.Evals++
			if c := in.Cost(e1, e2); c < best.Cost {
				best.Cost, best.E1, best.E2 = c, e1, e2
			}
		}
	}
	return best
}

// BranchAndBound is the paper's exit-setting algorithm (§III-C). Theorem 1:
// if the two-exit network rooted at a shallower First-exit candidate is
// cheaper than one rooted at a deeper candidate, the same ordering holds for
// every completed three-exit combination. The solver therefore repeatedly
// takes the best remaining two-exit root i_k within the current upper bound,
// completes it by scanning Second-exit choices (the set R_{i_k}), and shrinks
// the First-exit search space to indices below i_k, until the bound reaches
// zero. Average complexity is O(m ln m) (Theorem 2).
func (in *Instance) BranchAndBound() Setting {
	m := in.Profile.NumExits()
	best := Setting{E1: -1, Cost: math.Inf(1), E3: m}

	// Pre-evaluate the two-exit costs lazily; each index is costed at most
	// once across all rounds.
	twoExit := make([]float64, m-1) // twoExit[i-1] = T({exit_i, exit_m, -})
	costed := make([]bool, m-1)
	evals := 0
	costTwo := func(i int) float64 {
		if !costed[i-1] {
			twoExit[i-1] = in.twoExitCost(i)
			costed[i-1] = true
			evals++
		}
		return twoExit[i-1]
	}

	upbound := m - 2
	for upbound >= 1 {
		// i_k = argmin of the two-exit cost within the current bound.
		ik, ikCost := 0, math.Inf(1)
		for i := 1; i <= upbound; i++ {
			if c := costTwo(i); c < ikCost {
				ik, ikCost = i, c
			}
		}
		// Complete i_k with every admissible Second-exit (the set R_{i_k}).
		for e2 := ik + 1; e2 < m; e2++ {
			evals++
			if c := in.Cost(ik, e2); c < best.Cost {
				best.Cost, best.E1, best.E2 = c, ik, e2
			}
		}
		// Theorem 1 excludes every deeper First-exit candidate.
		upbound = ik - 1
	}
	best.Evals = evals
	return best
}

// Solve runs the branch-and-bound solver; it is the production entry point.
func (in *Instance) Solve() Setting { return in.BranchAndBound() }
