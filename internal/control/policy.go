package control

// Policy is the one knob surface of the edge control plane, read alike by
// the wall-clock executor (internal/runtime) and the model-clock station
// (internal/sim): both hand it to NewQueue. The zero value disables every
// behaviour: unbounded FIFO queues, no batching, no degradation.
//
// Static configuration sets MaxBacklogSec and Batch directly; adaptive
// operation sets DeadlineAdmission / AdaptiveBatch / EDF / Degrade.Enabled
// and lets the controllers drive the same mechanisms from observed load.
type Policy struct {
	// MaxBacklogSec bounds the queue: work that would push the
	// accepted-but-unfinished backlog beyond this many seconds (at the
	// current rate) is refused (Verdict.OverBudget). Non-positive leaves
	// the queue unbounded.
	MaxBacklogSec float64
	// DeadlineAdmission admits a job only if its predicted wait plus
	// service fits its deadline: a job that cannot finish in time is
	// refused at admission (Verdict.Infeasible) instead of being queued,
	// computed, and shed at its deadline. The wait prediction is the
	// backlog corrected by a learned bias (Predictor).
	DeadlineAdmission bool
	// EDF orders the queue earliest-deadline-first instead of FIFO; jobs
	// without a deadline sort last, among themselves in arrival order.
	// With EDF false — or when no job carries a deadline — the queue is
	// the exact FIFO.
	EDF bool
	// Batch configures the batch window. With AdaptiveBatch false it is
	// applied statically; with AdaptiveBatch true, MaxSize and MaxDelaySec
	// become the ceilings of the adaptive window (zeros select a size cap
	// of 8 and a 0.05 s window).
	Batch Batch
	// AdaptiveBatch widens and shrinks the batch window from the observed
	// arrival rate and latency tail (Window): sparse traffic serves
	// unbatched with no added latency, saturation rides Batch.MaxDelaySec.
	AdaptiveBatch bool
	// TargetP99Sec is the latency objective of the adaptive window in
	// model seconds: when observed p99 exceeds it the window backs off.
	// Zero disables the latency guard.
	TargetP99Sec float64
	// Degrade controls overload exit degradation at the edge. It is a
	// runtime-only behaviour: the queue and the simulator ignore it.
	Degrade DegradePolicy
}

// DegradePolicy chooses how an overloaded edge trades accuracy for
// throughput by serving some tenants from shallower exits.
type DegradePolicy struct {
	// Enabled turns degradation on. With Blind false the edge runs the
	// accuracy-maximizing planner (Plan): tenants whose calibrated exit
	// profile loses the least accuracy per edge FLOPS freed are demoted
	// first, until offered demand fits Utilization of the edge's FLOPS.
	Enabled bool
	// Blind reproduces the legacy strawman instead: under overload every
	// tenant is uniformly capped to exit 2. Kept as a comparison baseline
	// (`leime-loadgen -policy-degrade blind`); it frees no edge compute.
	Blind bool
	// Accuracy is the per-exit conditional accuracy profile the planner
	// maximizes; the zero value selects the runtime's default profile.
	Accuracy [3]float64
	// Utilization is the fraction of edge FLOPS the planner budgets
	// offered demand against, in (0, 1]; zero selects the runtime's
	// default.
	Utilization float64
}
