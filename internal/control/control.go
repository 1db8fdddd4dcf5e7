// Package control implements the edge control plane: the edge queue and
// the closed-loop replacements for the three hand-set capacity knobs
// (static batch window, static backlog budget, blind exit degradation).
//
// The package is deliberately clock-free: every observation carries a
// caller-supplied timestamp in seconds on the caller's clock, so the same
// code runs unchanged against the wall clock (internal/runtime) and the
// model clock (internal/sim), and the determinism analyzer can hold the
// package to the pure tier — identical observation streams produce
// bit-identical control trajectories. Nothing here locks or starts a
// goroutine; a concurrent driver serializes access.
//
// Policy is the one policy value both substrates read. Batch is the one
// batch-window configuration: the size and delay caps, the marginal cost
// of each extra job, the amortized cost formula and the adaptive window's
// default ceilings.
//
// Queue is the single-server edge queue itself, as a state machine:
// admission against the backlog budget and deadline feasibility, FIFO or
// EDF order, same-class batches under a static or adaptive window.
// runtime.Executor and the simulator's stations drive the same Queue, so
// admission, EDF and batching are written once. It runs two controllers:
//
//   - Predictor: turns a queue's backlog (seconds of accepted-but-unfinished
//     work at the current rate) into a calibrated wait estimate. The raw
//     backlog is an unbiased FIFO prediction only when service is perfectly
//     work-conserving; batch amortization, window holds and rate changes all
//     bias it, so the predictor learns a multiplicative correction from
//     observed (predicted, actual) wait pairs.
//   - Window: adapts the batch window from the observed arrival rate and the
//     observed latency tail, tracking the fill-time of a full batch and
//     backing off when p99 exceeds the latency objective.
//
// Plan chooses which tenants degrade to shallower exits under overload,
// maximizing rate-weighted aggregate accuracy subject to an edge FLOPS
// budget (a fractional-knapsack relaxation of the degradation LP).
package control

// predictorMinSec is the smallest predicted wait that updates the bias:
// ratios against near-zero predictions are noise, not signal.
const predictorMinSec = 1e-4

// Predictor calibrates queueing-wait predictions. Predict scales the raw
// backlog by a learned bias; Observe feeds back one (predicted, observed)
// pair and moves the bias toward the observed ratio by an exponential
// moving average. The zero value is not ready; use NewPredictor. A
// Predictor is not safe for concurrent use; a Queue's driver serializes
// it.
type Predictor struct {
	gain float64
	bias float64
}

// NewPredictor returns a predictor with the given EWMA gain in (0, 1];
// non-positive gains select 0.1. The initial bias is 1 (trust the raw
// backlog until evidence arrives).
func NewPredictor(gain float64) *Predictor {
	if gain <= 0 {
		gain = 0.1
	}
	if gain > 1 {
		gain = 1
	}
	return &Predictor{gain: gain, bias: 1}
}

// Predict returns the calibrated wait estimate for a queue currently
// holding backlogSec seconds of work.
func (p *Predictor) Predict(backlogSec float64) float64 {
	return backlogSec * p.bias
}

// Observe feeds back one completed wait: what Predict returned at admission
// and what the job actually waited. Pairs with a near-zero prediction are
// ignored (an empty queue predicts ~0 and the ratio is undefined); the
// per-observation ratio is clamped to [0.25, 4] and the running bias to
// [0.5, 2] so one outlier cannot destabilize admission.
func (p *Predictor) Observe(predictedSec, observedSec float64) {
	if predictedSec < predictorMinSec {
		return
	}
	ratio := observedSec / predictedSec
	if ratio < 0.25 {
		ratio = 0.25
	}
	if ratio > 4 {
		ratio = 4
	}
	p.bias += p.gain * (ratio - p.bias)
	if p.bias < 0.5 {
		p.bias = 0.5
	}
	if p.bias > 2 {
		p.bias = 2
	}
}
