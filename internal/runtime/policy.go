package runtime

import "leime/internal/control"

// DefaultDegradeUtilization is the fraction of the edge's FLOPS the
// degradation planner budgets tenants against when
// DegradePolicy.Utilization is zero; the 10% headroom absorbs arrival
// burstiness around the mean rates the plan is computed from.
const DefaultDegradeUtilization = 0.9

// DefaultExitAccuracy is the per-exit conditional accuracy profile assumed
// by the degradation planner when DegradePolicy.Accuracy is zero. The
// values are the calibrated resnet-34 profile on the standard workload;
// deployments serving other architectures should pass their own profile.
var DefaultExitAccuracy = [3]float64{0.80, 0.89, 0.94}

// ControlPolicy is the one knob surface of the edge control plane. It
// subsumes what used to be three independent settings (a static batch
// window, a static backlog budget, and hardwired exit degradation) and adds
// their closed-loop variants. The zero value disables every behaviour:
// unbounded FIFO queues, no batching, no degradation — exactly the
// pre-policy executor, preserved as a pinned degenerate case.
//
// Static configuration sets MaxBacklogSec and Batch directly; adaptive
// operation sets DeadlineAdmission / AdaptiveBatch / EDF / Degrade.Enabled
// and lets the controllers in internal/control drive the same mechanisms
// from observed load.
type ControlPolicy struct {
	// MaxBacklogSec bounds the executor queue: work that would push the
	// accepted-but-unfinished backlog beyond this many seconds (at the
	// current rate) is rejected with ErrOverloadCapacity. Non-positive
	// leaves the queue unbounded.
	MaxBacklogSec float64
	// DeadlineAdmission admits a task only if its predicted wait plus
	// service fits the deadline riding the wire in rpc.Meta: a task that
	// cannot finish in time is rejected with ErrDeadlineInfeasible at
	// admission instead of being queued, computed, and shed at its
	// deadline. The wait prediction is the executor backlog corrected by a
	// learned bias (control.Predictor).
	DeadlineAdmission bool
	// EDF orders each executor queue earliest-deadline-first instead of
	// FIFO; tasks without a deadline sort last, among themselves in arrival
	// order. With EDF false — or when no task carries a deadline — the
	// queue is the exact global FIFO the shard tests pin.
	EDF bool
	// Batch configures the batch window. With AdaptiveBatch false it is
	// applied statically, exactly the old behaviour; with AdaptiveBatch
	// true, MaxSize and MaxDelaySec become the ceilings of the adaptive
	// window (control.Batch.AdaptiveCeilings fills zeros).
	Batch control.Batch
	// AdaptiveBatch widens and shrinks the batch window from the observed
	// arrival rate and latency tail (control.Window): sparse traffic
	// serves unbatched with no added latency, saturation rides
	// Batch.MaxDelaySec.
	AdaptiveBatch bool
	// TargetP99Sec is the latency objective of the adaptive window in
	// model seconds: when observed p99 exceeds it the window backs off.
	// Zero disables the latency guard.
	TargetP99Sec float64
	// Degrade controls overload exit degradation at the edge.
	Degrade DegradePolicy
}

// DegradePolicy chooses how an overloaded edge trades accuracy for
// throughput by serving some tenants from shallower exits.
type DegradePolicy struct {
	// Enabled turns degradation on. With Blind false the edge runs the
	// accuracy-maximizing planner (control.Plan): tenants whose calibrated
	// exit profile loses the least accuracy per edge FLOPS freed are
	// demoted first, until offered demand fits Utilization of the edge's
	// FLOPS.
	Enabled bool
	// Blind reproduces the legacy strawman instead: under overload every
	// tenant is uniformly capped to exit 2. Kept as a comparison baseline
	// for the selftune experiment; it frees no edge compute.
	Blind bool
	// Accuracy is the per-exit conditional accuracy profile the planner
	// maximizes; the zero value selects DefaultExitAccuracy.
	Accuracy [3]float64
	// Utilization is the fraction of edge FLOPS the planner budgets
	// offered demand against, in (0, 1]; zero selects
	// DefaultDegradeUtilization.
	Utilization float64
}

// withDefaults resolves zero fields of a degrade policy to the documented
// defaults.
func (d DegradePolicy) withDefaults() DegradePolicy {
	if d.Utilization <= 0 || d.Utilization > 1 {
		d.Utilization = DefaultDegradeUtilization
	}
	if d.Accuracy == ([3]float64{}) {
		d.Accuracy = DefaultExitAccuracy
	}
	return d
}

// withDefaults resolves zero fields of a policy to the documented defaults:
// adaptive batching fills its size/window ceilings, degradation fills its
// accuracy profile and utilization. Fully zero stays fully zero — the
// degenerate no-op policy.
func (p ControlPolicy) withDefaults() ControlPolicy {
	if p.AdaptiveBatch {
		p.Batch = p.Batch.AdaptiveCeilings()
	}
	p.Degrade = p.Degrade.withDefaults()
	return p
}

// WithPolicy applies a control policy to an executor: admission budget,
// queue order, batch window (static or adaptive) and deadline admission.
// It is the one way to configure executor behaviour; passing the zero
// policy is a no-op, so callers can plumb user configuration through
// unconditionally.
func WithPolicy(p ControlPolicy) ExecOption {
	return func(e *Executor) {
		p = p.withDefaults()
		e.policy = p
		e.batch = p.Batch
		e.admitSec = p.MaxBacklogSec
		e.edf = p.EDF
		if p.AdaptiveBatch {
			e.window = control.NewWindow(control.WindowConfig{
				MaxSize:      p.Batch.MaxSize,
				DelayCapSec:  p.Batch.MaxDelaySec,
				TargetP99Sec: p.TargetP99Sec,
			})
		}
		if p.DeadlineAdmission {
			e.pred = control.NewPredictor(0)
		}
	}
}
