// Package offload implements LEIME's computation-level contribution: the
// online distributed task-offloading mechanism (§III-D). Each device decides,
// once per time slot, what fraction x_i(t) of its newly arrived first-block
// inference tasks to launch on the edge server instead of locally.
//
// The long-term stochastic problem P1 (eq. 15) is converted with Lyapunov
// drift-plus-penalty into the per-slot deterministic problem P1' (eq. 18).
// The decentralized solver follows the paper's Cauchy–Schwarz argument
// (eq. 20): with large V, the per-slot optimum is reached by balancing the
// device-side and edge-side time costs, T_i^d(t) = T_i^e(t), subject to the
// uplink bandwidth constraint (eq. 8). The edge's compute is divided between
// devices with the KKT closed form (eq. 27, Appendix B).
package offload

import (
	"errors"
	"fmt"
	"math"
)

// ModelParams describe the deployed ME-DNN as the offloading model sees it:
// block operation counts, boundary data sizes, and exit probabilities.
type ModelParams struct {
	// Mu holds [mu_1, mu_2, mu_3]: the FLOPs of the three blocks.
	Mu [3]float64
	// D holds [d_0, d_1, d_2]: raw input size and the two intermediate
	// tensor sizes, in bytes.
	D [3]float64
	// Sigma holds [sigma_1, sigma_2, sigma_3]: cumulative exit probabilities
	// at the three exits; Sigma[2] == 1.
	Sigma [3]float64
}

// Validate reports whether the parameters are usable.
func (m ModelParams) Validate() error {
	var errs []error
	for i, v := range m.Mu {
		if v <= 0 {
			errs = append(errs, fmt.Errorf("offload: Mu[%d] = %v must be positive", i, v))
		}
	}
	for i, v := range m.D {
		if v <= 0 {
			errs = append(errs, fmt.Errorf("offload: D[%d] = %v must be positive", i, v))
		}
	}
	prev := 0.0
	for i, v := range m.Sigma {
		if v < prev || v > 1 {
			errs = append(errs, fmt.Errorf("offload: Sigma[%d] = %v must be monotone in [0,1]", i, v))
		}
		prev = v
	}
	if math.Abs(m.Sigma[2]-1) > 1e-9 {
		errs = append(errs, fmt.Errorf("offload: Sigma[2] = %v, want 1", m.Sigma[2]))
	}
	return errors.Join(errs...)
}

// Device is the per-device configuration the controller needs.
type Device struct {
	// FLOPS is the device capability F_i^d.
	FLOPS float64
	// BandwidthBps is the uplink bandwidth B_i^e in bits per second.
	BandwidthBps float64
	// LatencySec is the device–edge connection latency L_i^e in seconds.
	LatencySec float64
	// ArrivalMean is k_i, the expected task arrivals per slot.
	ArrivalMean float64
}

// Validate reports whether the device configuration is usable.
func (d Device) Validate() error {
	if d.FLOPS <= 0 {
		return fmt.Errorf("offload: device FLOPS %v must be positive", d.FLOPS)
	}
	if d.BandwidthBps <= 0 {
		return fmt.Errorf("offload: device bandwidth %v must be positive", d.BandwidthBps)
	}
	if d.LatencySec < 0 {
		return fmt.Errorf("offload: device latency %v must be non-negative", d.LatencySec)
	}
	if d.ArrivalMean < 0 {
		return fmt.Errorf("offload: arrival mean %v must be non-negative", d.ArrivalMean)
	}
	return nil
}

// State is the queue backlog of one device at the start of a slot.
type State struct {
	// Q is the local first-block queue length Q_i(t), in tasks.
	Q float64
	// H is the device's first-block queue length at the edge, H_i(t).
	H float64
}

// Slot bundles everything a per-slot decision depends on.
type Slot struct {
	// Arrivals is M_i(t): the number of tasks that arrived this slot.
	Arrivals float64
	// State is the queue backlog at the slot start.
	State State
	// EdgeShareFLOPS is p_i * F^e: the edge compute available to this device.
	EdgeShareFLOPS float64
}

// Config fixes the controller constants.
type Config struct {
	// Model is the deployed ME-DNN.
	Model ModelParams
	// TauSec is the slot length in seconds.
	TauSec float64
	// V is the Lyapunov penalty weight; larger V weighs current-slot delay
	// more against queue stability (Theorem 3's B/V gap shrinks with V).
	V float64
}

// validate reports whether the configuration is usable.
func (c Config) validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.TauSec <= 0 {
		return fmt.Errorf("offload: TauSec %v must be positive", c.TauSec)
	}
	if c.V <= 0 {
		return fmt.Errorf("offload: V %v must be positive", c.V)
	}
	return nil
}

// Costs are the evaluated per-slot cost terms for one offloading ratio.
type Costs struct {
	// TD is T_i^d(t) (eq. 12): waiting + processing + intermediate-data
	// transmission for locally launched tasks.
	TD float64
	// TE is T_i^e(t) (eq. 13): input upload + edge waiting + edge processing
	// for offloaded tasks.
	TE float64
	// Objective is the P1' per-device objective (eq. 19).
	Objective float64
	// LocalRate is b_i(t): first-block tasks the device can drain per slot.
	LocalRate float64
	// EdgeRate is c_i(t): first-block tasks the device's edge share drains
	// per slot.
	EdgeRate float64
}

// Controller evaluates the per-slot cost model and makes offloading
// decisions for one device.
type Controller struct {
	cfg Config
}

// NewController validates the configuration and builds a controller.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// edgeBlockShare returns F^e_{i,1} (eq. 9): the part of the device's edge
// share that serves first-block tasks; the rest serves second-block work
// arriving from the First exit. Equation 9 splits by this slot's workload
// ratio, x*mu_1 : (1-sigma_1)*mu_2 (per arriving task); the backlog H of
// already-accepted first-block tasks is added to the first-block side so a
// queue left behind by an earlier offloading burst keeps draining even when
// the current decision is x = 0 — taking the equation literally would starve
// the backlog forever and deadlock the controller away from offloading.
func (c *Controller) edgeBlockShare(x, shareFLOPS, arrivals, backlog float64) float64 {
	m := c.cfg.Model
	first := (x*arrivals + backlog) * m.Mu[0]
	second := (1 - m.Sigma[0]) * arrivals * m.Mu[1]
	denom := first + second
	if denom <= 0 {
		return 0
	}
	return first * shareFLOPS / denom
}

// Eval computes all per-slot cost terms for offloading ratio x in [0, 1].
func (c *Controller) Eval(dev Device, slot Slot, x float64) Costs {
	m := c.cfg.Model
	tau := c.cfg.TauSec
	a := (1 - x) * slot.Arrivals // A_i(t), tasks launched locally
	d := x * slot.Arrivals       // D_i(t), tasks launched at the edge

	var out Costs
	out.LocalRate = dev.FLOPS * tau / m.Mu[0]

	// Device side (eq. 12).
	wait := a * slot.State.Q * m.Mu[0] / dev.FLOPS
	proc := a*m.Mu[0]/dev.FLOPS + a*(a-1)/2*m.Mu[0]/dev.FLOPS
	if a < 1 {
		proc = a * m.Mu[0] / dev.FLOPS // no intra-slot queueing below one task
	}
	trans := (1 - m.Sigma[0]) * a * (m.D[1]*8/dev.BandwidthBps + dev.LatencySec)
	out.TD = wait + proc + trans

	// Edge side (eq. 13).
	fe1 := c.edgeBlockShare(x, slot.EdgeShareFLOPS, slot.Arrivals, slot.State.H)
	if fe1 > 0 {
		out.EdgeRate = fe1 * tau / m.Mu[0]
		upload := d * (m.D[0]*8/dev.BandwidthBps + dev.LatencySec)
		ewait := d * slot.State.H * m.Mu[0] / fe1
		eproc := d*m.Mu[0]/fe1 + d*(d-1)/2*m.Mu[0]/fe1
		if d < 1 {
			eproc = d * m.Mu[0] / fe1
		}
		out.TE = upload + ewait + eproc
	} else if d > 0 {
		// Offloading with no edge share is infinitely costly.
		out.TE = math.Inf(1)
	}

	// P1' objective (eq. 19).
	out.Objective = c.cfg.V*(out.TD+out.TE) +
		slot.State.Q*(a-out.LocalRate) +
		slot.State.H*(d-out.EdgeRate)
	return out
}

// bandwidthCap returns the largest offloading ratio the uplink admits
// (eq. 8): D(t) d_0 + A(t)(1 - sigma_1) d_1 <= B_i^e (tau - L_i^e), solved
// for x. The returned value is clamped to [0, 1]; if even x = 0 violates the
// constraint (the intermediate data alone overwhelms the link), it returns 0.
func (c *Controller) bandwidthCap(dev Device, arrivals float64) float64 {
	if arrivals == 0 {
		return 1
	}
	m := c.cfg.Model
	budgetBits := dev.BandwidthBps * (c.cfg.TauSec - dev.LatencySec)
	if budgetBits <= 0 {
		return 0
	}
	budget := budgetBits / 8 // bytes per slot
	base := arrivals * (1 - m.Sigma[0]) * m.D[1]
	coef := arrivals * (m.D[0] - (1-m.Sigma[0])*m.D[1])
	// Constraint: base + coef*x <= budget.
	if coef <= 0 {
		// Offloading reduces transmitted bytes; the cap is x=1 if feasible
		// anywhere. (At x=1 the load is arrivals*d_0.)
		if arrivals*m.D[0] <= budget || base+coef <= budget {
			return 1
		}
		return 0
	}
	cap := (budget - base) / coef
	return clamp01(cap)
}

// Decide returns the decentralized offloading decision (§III-D4): the ratio
// x that balances T_i^d(x) against T_i^e(x) — the Cauchy–Schwarz equality
// point of eq. 20 — clamped by the bandwidth cap. T_i^d is non-increasing
// and T_i^e non-decreasing in x, so the balance point is found by bisection.
func (c *Controller) Decide(dev Device, slot Slot) float64 {
	if slot.Arrivals == 0 || slot.EdgeShareFLOPS <= 0 {
		return 0
	}
	cap := c.bandwidthCap(dev, slot.Arrivals)
	if cap == 0 {
		return 0
	}
	g := func(x float64) float64 {
		costs := c.Eval(dev, slot, x)
		if math.IsInf(costs.TE, 1) {
			return math.Inf(-1)
		}
		return costs.TD - costs.TE
	}
	balance := cap
	switch {
	case g(0) <= 0:
		balance = 0 // local side already cheaper at x=0
	case g(cap) >= 0:
		balance = cap // edge side still cheaper at the cap
	default:
		lo, hi := 0.0, cap
		for iter := 0; iter < 60; iter++ {
			mid := (lo + hi) / 2
			if g(mid) > 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		balance = (lo + hi) / 2
	}
	// "Balance as much as possible" can still lose to a corner when moving
	// any work to the other side is strictly harmful (e.g. a slow uplink
	// makes every offloaded task pay more than it saves). Each device checks
	// its own two corners against the balance point — still O(1) local work.
	best, bestObj := balance, c.Eval(dev, slot, balance).Objective
	for _, x := range []float64{0, cap} {
		if obj := c.Eval(dev, slot, x).Objective; obj < bestObj {
			best, bestObj = x, obj
		}
	}
	return best
}

// decideCentralized solves the per-slot P1' objective exactly by golden-
// section search over [0, cap] (the objective is convex in x, §III-D4). It
// is the comparator the close-to-optimal tests use; production code uses
// Decide.
func (c *Controller) decideCentralized(dev Device, slot Slot) float64 {
	if slot.Arrivals == 0 {
		return 0
	}
	cap := c.bandwidthCap(dev, slot.Arrivals)
	if cap == 0 {
		return 0
	}
	f := func(x float64) float64 { return c.Eval(dev, slot, x).Objective }
	const phi = 0.6180339887498949
	lo, hi := 0.0, cap
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, f2 := f(x1), f(x2)
	for iter := 0; iter < 80; iter++ {
		if f1 < f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = f(x1)
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = f(x2)
		}
	}
	best := (lo + hi) / 2
	// Convexity holds in the interior, but the boundary can still win when
	// the optimum is a corner; check both ends explicitly.
	for _, x := range []float64{0, cap} {
		if f(x) < f(best) {
			best = x
		}
	}
	return best
}

// StepQueues advances the queue backlogs by one slot (eqs. 10–11) given the
// decision x and returns the new state.
func (c *Controller) StepQueues(dev Device, slot Slot, x float64) State {
	costs := c.Eval(dev, slot, x)
	a := (1 - x) * slot.Arrivals
	d := x * slot.Arrivals
	return State{
		Q: math.Max(slot.State.Q-costs.LocalRate, 0) + a,
		H: math.Max(slot.State.H-costs.EdgeRate, 0) + d,
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
