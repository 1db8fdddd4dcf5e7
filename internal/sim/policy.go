package sim

import "leime/internal/control"

// Policy mirrors runtime.ControlPolicy for the event simulator's edge
// shares, so a simulated control plane and a testbed control plane can be
// configured from the same user-facing options. The zero value disables
// every behaviour: unbounded exact-FIFO stations, no batching — the
// pre-policy simulator, preserved as the pinned degenerate case.
//
// Two deliberate modeling differences from the testbed:
//
//   - No EDF field. Stations are busy-horizon models: service order IS
//     arrival order, there is no queue to re-sort. EDF is a testbed-only
//     discipline; differential comparisons run with EDF off.
//   - No learned wait predictor. Deadline admission quotes the station's
//     backlog directly: without batching it is the exact wait, the
//     calibrated fixed point a testbed control.Predictor converges toward
//     (bias 1).
type Policy struct {
	// MaxBacklogSec bounds each edge share's backlog: an edge submission
	// that would push the share's backlog beyond this many seconds is
	// refused, and the task re-runs on its device (counted in
	// EventResult.Fallbacks) — mirroring the runtime's
	// ErrOverloadCapacity degrade-to-local contract. Non-positive leaves
	// shares unbounded.
	MaxBacklogSec float64
	// DeadlineAdmission refuses an edge submission whose wait plus service
	// cannot fit the task's remaining deadline budget
	// (EventConfig.DeadlineSec); the task is shed immediately (counted in
	// EventResult.Sheds and DeadlineMisses) instead of completing late —
	// mirroring the runtime's ErrDeadlineInfeasible shed-now contract.
	// Without a configured DeadlineSec it admits everything.
	DeadlineAdmission bool
	// Batch configures the edge shares' batch window. With AdaptiveBatch
	// false it is applied statically, exactly the old behaviour; with
	// AdaptiveBatch true, MaxSize and MaxDelaySec become the adaptive
	// window's ceilings (control.Batch.AdaptiveCeilings fills zeros).
	Batch control.Batch
	// AdaptiveBatch drives each share's batch window from the observed
	// arrival rate and latency tail (control.Window) on the engine clock:
	// sparse traffic serves unbatched, saturation rides Batch.MaxDelaySec.
	AdaptiveBatch bool
	// TargetP99Sec is the adaptive window's latency objective in model
	// seconds; zero disables the p99 guard.
	TargetP99Sec float64
}

// withDefaults resolves zero fields exactly as runtime.ControlPolicy does:
// adaptive batching fills its size and window ceilings, everything else
// stays as configured. Fully zero stays fully zero.
func (p Policy) withDefaults() Policy {
	if p.AdaptiveBatch {
		p.Batch = p.Batch.AdaptiveCeilings()
	}
	return p
}
