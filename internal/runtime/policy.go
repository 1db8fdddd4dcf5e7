package runtime

import "leime/internal/control"

// defaultDegradeUtilization is the fraction of the edge's FLOPS the
// degradation planner budgets tenants against when
// DegradePolicy.Utilization is zero; the 10% headroom absorbs arrival
// burstiness around the mean rates the plan is computed from.
const defaultDegradeUtilization = 0.9

// DefaultExitAccuracy is the per-exit conditional accuracy profile assumed
// by the degradation planner when DegradePolicy.Accuracy is zero. The
// values are the calibrated resnet-34 profile on the standard workload;
// deployments serving other architectures should pass their own profile.
var DefaultExitAccuracy = [3]float64{0.80, 0.89, 0.94}

// The edge control plane's policy is control.Policy, the one value the
// executor's queue and the simulator's stations both read.
type (
	// ControlPolicy is the edge control policy: backlog budget, deadline
	// admission, EDF queue ordering, static or adaptive batching, and
	// overload degradation. The zero value disables every behaviour:
	// unbounded FIFO queues, no batching, no degradation.
	ControlPolicy = control.Policy
	// DegradePolicy chooses how an overloaded edge trades accuracy for
	// throughput by serving some tenants from shallower exits.
	DegradePolicy = control.DegradePolicy
)

// withDegradeDefaults resolves the zero fields of a policy's degradation to
// the documented defaults: DefaultExitAccuracy and
// defaultDegradeUtilization.
func withDegradeDefaults(p ControlPolicy) ControlPolicy {
	if p.Degrade.Utilization <= 0 || p.Degrade.Utilization > 1 {
		p.Degrade.Utilization = defaultDegradeUtilization
	}
	if p.Degrade.Accuracy == ([3]float64{}) {
		p.Degrade.Accuracy = DefaultExitAccuracy
	}
	return p
}

// WithPolicy applies a control policy to an executor: admission budget,
// queue order, batch window (static or adaptive) and deadline admission.
// It is the one way to configure executor behaviour; passing the zero
// policy is a no-op, so callers can plumb user configuration through
// unconditionally.
func WithPolicy(p ControlPolicy) ExecOption {
	return func(e *Executor) {
		e.q = control.NewQueue[*job](p, e.Rate())
	}
}
