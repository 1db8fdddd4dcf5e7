package control

// defaultBatchMarginal is the incremental cost of each batched job beyond
// the first, as a fraction of a lone job's cost, when Batch.Marginal is
// zero. The value models the measured shape of DNN batch inference:
// weights stream once per batch and per-item activation work dominates, so
// a batch of B costs ~(1 + (B-1)*0.25) lone-job times rather than B.
const defaultBatchMarginal = 0.25

// Ceilings of the adaptive batch window when Batch leaves them zero. They
// are the static-optimal point found on 4 devices sharing a 4 GFLOPS edge
// (seed 77): the adaptive window treats them as the ceiling it may
// approach, so a saturated adaptive window converges to the operating point
// a hand-tuned static one starts at.
const (
	// DefaultAdaptiveBatchSize is the batch size cap.
	DefaultAdaptiveBatchSize = 8
	// DefaultAdaptiveDelayCapSec is the window ceiling in model seconds.
	DefaultAdaptiveDelayCapSec = 0.05
)

// Batch configures a size/delay-bounded batch window, the same on the
// wall-clock executor (internal/runtime) and the model-clock station
// (internal/sim). A batch coalesces queued jobs of the same cost class (the
// same DNN block): the window holds the head job open for at most
// MaxDelaySec model seconds, admits up to MaxSize co-arriving same-class
// jobs, then burns one amortized service for all of them. The zero value
// disables batching.
type Batch struct {
	// MaxSize caps how many jobs one batch may coalesce; values <= 1
	// disable batching.
	MaxSize int
	// MaxDelaySec bounds, in model seconds, how long the window waits for
	// co-arriving work before firing a partial batch. It is the latency
	// price of batching: an isolated job pays up to this much extra wait.
	// Non-positive disables batching.
	MaxDelaySec float64
	// Marginal is the cost of each additional batched job as a fraction of
	// the first job's cost, in (0, 1]; zero selects defaultBatchMarginal.
	// 1 restores unbatched cost (no amortization).
	Marginal float64
}

// Enabled reports whether the configuration actually batches.
func (b Batch) Enabled() bool { return b.MaxSize > 1 && b.MaxDelaySec > 0 }

// marginal resolves the zero value to the documented default.
func (b Batch) marginal() float64 {
	if b.Marginal <= 0 {
		return defaultBatchMarginal
	}
	return b.Marginal
}

// Amortized returns what one batch of n jobs of per-job cost costs:
// cost * (1 + (n-1)*marginal). The unit is the caller's: FLOPs on the
// runtime, service seconds in the simulator.
func (b Batch) Amortized(cost float64, n int) float64 {
	if n <= 1 {
		return cost
	}
	return cost * (1 + float64(n-1)*b.marginal())
}

// adaptiveCeilings returns the configuration an adaptive window runs
// under: a MaxSize of 1 or less and a non-positive MaxDelaySec are filled
// with DefaultAdaptiveBatchSize and DefaultAdaptiveDelayCapSec; explicit
// values and Marginal are kept.
func (b Batch) adaptiveCeilings() Batch {
	if b.MaxSize <= 1 {
		b.MaxSize = DefaultAdaptiveBatchSize
	}
	if b.MaxDelaySec <= 0 {
		b.MaxDelaySec = DefaultAdaptiveDelayCapSec
	}
	return b
}
